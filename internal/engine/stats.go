package engine

import (
	"time"

	"github.com/roulette-db/roulette/internal/metrics"
)

// OpClassStats describes one operator class's aggregate work. Tuples is the
// class's natural output unit: survivors for filters, entries for builds,
// join outputs for probes, and routed rows for routers.
type OpClassStats struct {
	Invocations int64 // operator applications (one operator × one vector)
	Tuples      int64
	Nanos       int64 // cumulative wall time attributed to the class
}

// QueryStats describes one query's share of the batch.
type QueryStats struct {
	Episodes  int64 // episodes whose active set included the query
	Tuples    int64 // SPJ result tuples routed to the query's source
	Elapsed   time.Duration
	Completed bool
}

// StemStats describes one instance's STeM traffic.
type StemStats struct {
	Table    string
	Entries  int64 // entries resident at the end of the run
	Inserts  int64
	Probes   int64 // hash-lookup probe calls against this STeM
	Matches  int64 // match tuples emitted by those probes
	EstBytes int64
}

// PolicyStats describes the learned policy's behaviour over the run.
// Explores/Exploits are zero for policies without decision counters.
type PolicyStats struct {
	QStates      int   // explored (state, action) entries
	Explores     int64 // ε-random decisions
	Exploits     int64 // greedy decisions
	PlanSwitches int64 // per-instance episode plan-signature changes
}

// SharingStats quantifies multi-query work sharing: Factor() is the share
// of operator invocations that served more than one query.
type SharingStats struct {
	SharedOps     int64
	TotalOps      int64
	QueriesServed int64 // sum of queries served across invocations
}

// Factor returns SharedOps/TotalOps (0 with no invocations).
func (s SharingStats) Factor() float64 {
	if s.TotalOps == 0 {
		return 0
	}
	return float64(s.SharedOps) / float64(s.TotalOps)
}

// BatchStats is the engine-level execution breakdown for one finished run,
// collected only under Config.Exec.CollectStats.
type BatchStats struct {
	Queries []QueryStats

	Filters   OpClassStats // grouped filters + prune filters (selection phase)
	Builds    OpClassStats // STeM inserts
	Probes    OpClassStats // STeM probe nodes
	RouteSels OpClassStats // routing selections (time counted under Probes.Nanos)
	Routers   OpClassStats

	Stems   []StemStats
	Policy  PolicyStats
	Sharing SharingStats
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
		Policy: PolicyStats{PlanSwitches: s.planSwitches},
	}

	bs.Queries = make([]QueryStats, s.b.N)
	for qid := range bs.Queries {
		bs.Queries[qid] = QueryStats{
			Episodes:  s.qEpisodes[qid],
			Tuples:    res.Counts[qid],
			Elapsed:   s.qElapsed[qid],
			Completed: res.Status[qid].Completed,
		}
	}

	bs.Stems = s.stemStatsLocked()

	if ts, ok := s.pol.(tableSizer); ok {
		bs.Policy.QStates = ts.TableSize()
	}
	if ac, ok := s.pol.(actionCounter); ok {
		bs.Policy.Explores, bs.Policy.Exploits = ac.ActionCounts()
	}
	return bs
}

// foldRegistryLocked folds the finished run into the process-wide metrics
// registry (one fold per batch — never on an episode path). Basic executor
// counters fold unconditionally; stats-derived families only when they were
// collected.
func (s *Session) foldRegistryLocked(res *Results, bs *BatchStats) {
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
	reg.EpisodeFaults.Add(int64(len(res.Faults)))
	for i := range res.Faults {
		reg.AddFault(res.Faults[i].Kind.String(), 1)
	}
	// Watermark liveness check: every allocated slot must have been
	// published by the time the pool drains (runEpisode guarantees it on
	// all its exit paths). A non-zero lag means a slot leaked, which
	// silently disables the probe kernels' watermark fast path.
	reg.WatermarkLag.Store(int64(s.episode) - int64(s.ctx.Versions.Watermark()))
	if s.dom != nil {
		reg.EpochLag.Store(s.dom.Lag())
	}

	if bs == nil {
		return
	}
	var probes int64
	for i := range bs.Stems {
		probes += bs.Stems[i].Probes
	}
	reg.StemProbes.Add(probes)
	reg.SharedOps.Add(bs.Sharing.SharedOps)
	reg.TotalOps.Add(bs.Sharing.TotalOps)
	reg.PlanSwitches.Add(bs.Policy.PlanSwitches)
	reg.ExploreActions.Add(bs.Policy.Explores)
	reg.ExploitActions.Add(bs.Policy.Exploits)
	reg.QStates.Store(int64(bs.Policy.QStates))
}
