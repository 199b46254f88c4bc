package engine

import (
	"fmt"
	"strings"
	"time"

	"github.com/roulette-db/roulette/internal/metrics"
)

// OpClassStats aggregates one operator class's work across the batch.
// Tuples is the class's natural output unit: survivors for filters, inserted
// entries for builds, join outputs for probes, routed rows for routers.
type OpClassStats struct {
	Invocations int64 `json:"invocations"` // operator applications (one operator × one vector)
	Tuples      int64 `json:"tuples"`
	Nanos       int64 `json:"nanos"` // cumulative wall time attributed to the class
}

// QueryStats is one query's share of the batch execution.
type QueryStats struct {
	Tag string `json:"tag"`
	// Episodes is the number of episodes whose active set included the
	// query (its share of shared scan work).
	Episodes int64 `json:"episodes"`
	// Tuples is the query's SPJ result cardinality.
	Tuples int64 `json:"tuples"`
	// Elapsed is batch start → the query's last input vector scheduled.
	Elapsed   time.Duration `json:"elapsed_ns"`
	Completed bool          `json:"completed"`
}

// StemStats describes one relation instance's STeM (shared join state): in
// a finished batch's BatchStats, or live from Session.StemSnapshot, where
// Entries and EstBytes shrink as GC reclaims and the traffic counters are
// cumulative.
type StemStats struct {
	Table    string `json:"table"`
	Entries  int64  `json:"entries"` // entries resident now
	Inserts  int64  `json:"inserts"`
	Probes   int64  `json:"probes"`  // hash-lookup probe calls against this STeM
	Matches  int64  `json:"matches"` // match tuples emitted by those probes
	EstBytes int64  `json:"est_bytes"`
}

// HitRate returns the average match tuples emitted per probe lookup against
// this STeM (0 with no probes; above 1 means key fan-out).
func (s StemStats) HitRate() float64 {
	if s.Probes == 0 {
		return 0
	}
	return float64(s.Matches) / float64(s.Probes)
}

// PolicyStats summarizes the planning policy's behaviour over the batch.
// Explores and Exploits stay zero for policies without decision counters
// (the learned policy implements them).
type PolicyStats struct {
	// QStates is the number of explored Q-table (state, action) entries.
	QStates int `json:"qtable_states"`
	// Explores counts ε-random decisions, Exploits greedy ones.
	Explores int64 `json:"explore_actions"`
	Exploits int64 `json:"exploit_actions"`
	// PlanSwitches counts episodes whose chosen operator sequence differed
	// from the previous episode on the same relation — how often the policy
	// changed its mind mid-run.
	PlanSwitches int64 `json:"plan_switches"`
}

// SharingStats quantifies cross-query work sharing. An invocation is one
// operator applied to one vector; it is shared when it served more than one
// query at once.
type SharingStats struct {
	SharedOps     int64 `json:"shared_op_invocations"`
	TotalOps      int64 `json:"op_invocations"`
	QueriesServed int64 `json:"queries_served"` // sum of queries served across invocations
}

// Factor returns the shared fraction of operator invocations in [0, 1].
func (s SharingStats) Factor() float64 {
	if s.TotalOps == 0 {
		return 0
	}
	return float64(s.SharedOps) / float64(s.TotalOps)
}

// FanOut returns the mean number of queries served per invocation.
func (s SharingStats) FanOut() float64 {
	if s.TotalOps == 0 {
		return 0
	}
	return float64(s.QueriesServed) / float64(s.TotalOps)
}

// BatchStats is the execution breakdown of one finished batch.
type BatchStats struct {
	Queries []QueryStats `json:"queries"` // by caller position, like Results

	Filters OpClassStats `json:"filters"` // grouped + prune filters (selection phase)
	Builds  OpClassStats `json:"builds"`  // STeM inserts
	Probes  OpClassStats `json:"probes"`  // STeM probe operators
	// RouteSels counts routing selections; their time is attributed to
	// Probes.Nanos, matching the cost model's join-phase accounting.
	RouteSels OpClassStats `json:"route_sels"`
	Routers   OpClassStats `json:"routers"`

	Stems   []StemStats  `json:"stems"`
	Policy  PolicyStats  `json:"policy"`
	Sharing SharingStats `json:"sharing"`
}

// Summary renders a compact multi-line overview.
func (s *BatchStats) Summary() string {
	var b strings.Builder
	completed := 0
	for _, q := range s.Queries {
		if q.Completed {
			completed++
		}
	}
	fmt.Fprintf(&b, "queries: %d/%d completed\n", completed, len(s.Queries))
	fmt.Fprintf(&b, "ops: filter=%d build=%d probe=%d routesel=%d route=%d\n",
		s.Filters.Invocations, s.Builds.Invocations, s.Probes.Invocations,
		s.RouteSels.Invocations, s.Routers.Invocations)
	fmt.Fprintf(&b, "tuples: filtered=%d inserted=%d joined=%d routed=%d\n",
		s.Filters.Tuples, s.Builds.Tuples, s.Probes.Tuples, s.Routers.Tuples)
	var stemBytes int64
	for _, st := range s.Stems {
		stemBytes += st.EstBytes
	}
	fmt.Fprintf(&b, "stems: %d instances, ~%.1f MiB\n", len(s.Stems), float64(stemBytes)/(1<<20))
	fmt.Fprintf(&b, "policy: %d Q-states, %d explore / %d exploit, %d plan switches\n",
		s.Policy.QStates, s.Policy.Explores, s.Policy.Exploits, s.Policy.PlanSwitches)
	fmt.Fprintf(&b, "sharing: factor %.2f, fan-out %.1f queries/op\n",
		s.Sharing.Factor(), s.Sharing.FanOut())
	return b.String()
}

// tableSizer and actionCounter are the optional interfaces learned policies
// expose for observability (qlearn.Learned implements both).
type tableSizer interface{ TableSize() int }
type actionCounter interface {
	ActionCounts() (explores, exploits int64)
}

// buildStatsLocked assembles BatchStats from the executor counters and the
// session's per-query accounting. Caller holds s.mu after the worker pool
// has drained.
func (s *Session) buildStatsLocked(res *Results) *BatchStats {
	st := &s.ctx.Stats
	bs := &BatchStats{
		Filters: OpClassStats{
			Invocations: st.FilterOps.Load(),
			Tuples:      st.SelOut.Load(),
			Nanos:       st.FilterNs.Load(),
		},
		Builds: OpClassStats{
			Invocations: st.Episodes.Load(), // one insert pass per episode
			Tuples:      st.Inserted.Load(),
			Nanos:       st.BuildNs.Load(),
		},
		Probes: OpClassStats{
			Invocations: st.ProbeOps.Load(),
			Tuples:      st.JoinOut.Load(),
			Nanos:       st.ProbeNs.Load(),
		},
		RouteSels: OpClassStats{
			Invocations: st.RouteSelOps.Load(),
		},
		Routers: OpClassStats{
			Invocations: st.RouterOps.Load(),
			Tuples:      st.Routed.Load(),
			Nanos:       st.RouteNs.Load(),
		},
		Sharing: SharingStats{
			SharedOps:     st.SharedOps.Load(),
			TotalOps:      st.TotalOps(),
			QueriesServed: st.OpQueries.Load(),
		},
		Policy: s.policyStatsLocked(),
	}

	bs.Queries = make([]QueryStats, s.b.N)
	for qid := range bs.Queries {
		p := s.b.Pos(qid)
		bs.Queries[p] = QueryStats{
			Tag:       s.b.Queries[qid].Tag,
			Episodes:  s.qEpisodes[qid],
			Tuples:    res.Counts[p],
			Elapsed:   s.qElapsed[qid],
			Completed: res.Status[p].Completed,
		}
	}

	bs.Stems = s.stemStatsLocked()
	return bs
}

// policyStatsLocked reads the policy's decision counters and the session's
// plan-switch count.
func (s *Session) policyStatsLocked() PolicyStats {
	ps := PolicyStats{PlanSwitches: s.planSwitches}
	if ts, ok := s.pol.(tableSizer); ok {
		ps.QStates = ts.TableSize()
	}
	if ac, ok := s.pol.(actionCounter); ok {
		ps.Explores, ps.Exploits = ac.ActionCounts()
	}
	return ps
}

// foldRegistryLocked folds the finished run — a batch or a whole stream —
// into the process-wide metrics registry, once per run and never on an
// episode path. It reads the same executor counters and policy state
// BatchStats is built from, so the registry and a batch's Stats agree.
func (s *Session) foldRegistryLocked(res *Results) {
	reg := metrics.Default()
	st := &s.ctx.Stats

	reg.Batches.Add(1)
	reg.Episodes.Add(res.Episodes)
	reg.SelIn.Add(st.SelIn.Load())
	reg.SelOut.Add(st.SelOut.Load())
	reg.StemInserts.Add(st.Inserted.Load())
	reg.JoinTuples.Add(res.JoinTuples)
	reg.Routed.Add(st.Routed.Load())
	reg.FilterNs.Add(st.FilterNs.Load())
	reg.BuildNs.Add(st.BuildNs.Load())
	reg.ProbeNs.Add(st.ProbeNs.Load())
	reg.RouteNs.Add(st.RouteNs.Load())

	for _, qs := range res.Status {
		if qs.Completed {
			reg.QueriesComplete.Add(1)
		} else {
			reg.QueriesAborted.Add(1)
		}
	}
	for i := range res.Faults { // AddFault also counts EpisodeFaults
		reg.AddFault(res.Faults[i].Kind.String(), 1)
	}

	var probes int64
	for i := range s.b.Insts {
		probes += s.ctx.InstStats[i].Probes.Load()
	}
	reg.StemProbes.Add(probes)
	reg.SharedOps.Add(st.SharedOps.Load())
	reg.TotalOps.Add(st.TotalOps())
	ps := s.policyStatsLocked()
	reg.PlanSwitches.Add(ps.PlanSwitches)
	reg.ExploreActions.Add(ps.Explores)
	reg.ExploitActions.Add(ps.Exploits)
	reg.QStates.Store(int64(ps.QStates))
}
