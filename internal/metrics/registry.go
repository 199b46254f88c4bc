package metrics

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a process-wide set of engine counters. Sessions fold their
// totals in once per batch (never on the episode hot path), so the registry
// is cheap enough to leave always on, and every counter it folds is always
// collected. The zero value is ready to use.
type Registry struct {
	Batches         atomic.Int64 // finished batch executions
	QueriesComplete atomic.Int64 // queries that drained to completion
	QueriesAborted  atomic.Int64 // queries cut by cancellation or faults
	Episodes        atomic.Int64
	EpisodeFaults   atomic.Int64

	SelIn       atomic.Int64 // tuples entering the selection phase
	SelOut      atomic.Int64 // tuples surviving it
	StemInserts atomic.Int64 // STeM entries inserted
	StemProbes  atomic.Int64 // STeM probe lookups
	JoinTuples  atomic.Int64 // intermediate join output tuples
	Routed      atomic.Int64 // tuples delivered to sources

	SharedOps atomic.Int64 // operator invocations serving >1 query
	TotalOps  atomic.Int64 // all counted operator invocations

	PlanSwitches   atomic.Int64
	ExploreActions atomic.Int64
	ExploitActions atomic.Int64
	QStates        atomic.Int64 // Q-table size of the most recent session (gauge)

	// Admission / overload protection (streaming).
	SubmitAdmitted   atomic.Int64 // submissions admitted past the controller
	SubmitOverloads  atomic.Int64 // submissions rejected with ErrOverloaded
	DeadlineSheds    atomic.Int64 // queries shed for unmeetable deadlines (submit-time + mid-flight)
	StarvationBoosts atomic.Int64 // starvation-watchdog activations

	// Concurrent GC (streaming).
	GCConcurrentQuanta atomic.Int64 // GC quanta executed while episodes were in flight

	// Cross-batch policy persistence (template-keyed warm starts).
	PolicyCacheHits    atomic.Int64 // snapshot lookups that found a cached template
	PolicyCacheMisses  atomic.Int64 // snapshot lookups that came up cold
	PolicyCacheStores  atomic.Int64 // snapshots exported into the cache
	WarmStartedQueries atomic.Int64 // queries that began executing under an imported prior

	// AdmitLatency is the submit-to-first-episode latency distribution in
	// microseconds: the time from SubmitLiveMeta returning a query ID to the
	// first episode vector carrying the query's bit being handed to a
	// worker. With the stop-the-world gate gone this is the headline
	// admission-responsiveness number.
	AdmitLatency Histogram

	FilterNs atomic.Int64
	BuildNs  atomic.Int64
	ProbeNs  atomic.Int64
	RouteNs  atomic.Int64

	mu      sync.Mutex
	faults  map[string]int64          // per fault class
	tenants map[string]*TenantMetrics // per tenant, streaming SLO accounting
}

// TenantMetrics is one tenant's streaming SLO accounting: retire-latency
// distribution (submit to terminal ticket outcome) plus admission counters.
// Histograms are power-of-two-bucketed microseconds, so the exported
// quantiles are upper bounds at bucket resolution.
type TenantMetrics struct {
	Retire   Histogram // retire latency in microseconds
	Admitted atomic.Int64
	Rejected atomic.Int64 // ErrOverloaded rejections
	Shed     atomic.Int64 // ErrDeadlineShed (submit-time + mid-flight)
}

// Tenant returns (creating) the named tenant's metrics.
func (r *Registry) Tenant(name string) *TenantMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tenants == nil {
		r.tenants = make(map[string]*TenantMetrics)
	}
	tm := r.tenants[name]
	if tm == nil {
		tm = &TenantMetrics{}
		r.tenants[name] = tm
	}
	return tm
}

// ObserveRetire records one query's submit-to-retire latency for a tenant.
func (r *Registry) ObserveRetire(tenant string, micros int64) {
	r.Tenant(tenant).Retire.Add(micros)
}

// TenantSLO is one tenant's exported SLO snapshot.
type TenantSLO struct {
	Tenant        string  `json:"tenant"`
	Retired       int64   `json:"retired"`
	RetireP50Us   int64   `json:"retire_p50_micros"`
	RetireP95Us   int64   `json:"retire_p95_micros"`
	RetireMeanUs  float64 `json:"retire_mean_micros"`
	Admitted      int64   `json:"admitted"`
	OverloadRejcs int64   `json:"overload_rejected"`
	DeadlineSheds int64   `json:"deadline_shed"`
}

// tenantsCopy snapshots the per-tenant SLO metrics, sorted by tenant name.
func (r *Registry) tenantsCopy() []TenantSLO {
	r.mu.Lock()
	names := make([]string, 0, len(r.tenants))
	for name := range r.tenants {
		names = append(names, name)
	}
	tms := make([]*TenantMetrics, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		tms = append(tms, r.tenants[name])
	}
	r.mu.Unlock()

	out := make([]TenantSLO, len(names))
	for i, tm := range tms {
		out[i] = TenantSLO{
			Tenant:        names[i],
			Retired:       tm.Retire.Count(),
			RetireP50Us:   tm.Retire.Quantile(0.50),
			RetireP95Us:   tm.Retire.Quantile(0.95),
			RetireMeanUs:  tm.Retire.Mean(),
			Admitted:      tm.Admitted.Load(),
			OverloadRejcs: tm.Rejected.Load(),
			DeadlineSheds: tm.Shed.Load(),
		}
	}
	return out
}

var defaultRegistry Registry

// Default returns the process-wide registry that sessions fold into.
func Default() *Registry { return &defaultRegistry }

// AddFault adds n aborted episodes of the given fault class.
func (r *Registry) AddFault(kind string, n int64) {
	if n == 0 {
		return
	}
	r.mu.Lock()
	if r.faults == nil {
		r.faults = make(map[string]int64)
	}
	r.faults[kind] += n
	r.mu.Unlock()
	r.EpisodeFaults.Add(n)
}

// faultsCopy snapshots the per-class fault counters.
func (r *Registry) faultsCopy() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.faults))
	for k, v := range r.faults {
		out[k] = v
	}
	return out
}

// RegistrySnapshot is a point-in-time copy of a Registry, JSON-shaped for
// the metrics endpoint.
type RegistrySnapshot struct {
	Batches         int64 `json:"batches"`
	QueriesComplete int64 `json:"queries_completed"`
	QueriesAborted  int64 `json:"queries_aborted"`
	Episodes        int64 `json:"episodes"`
	EpisodeFaults   int64 `json:"episode_faults"`

	SelIn       int64 `json:"sel_tuples_in"`
	SelOut      int64 `json:"sel_tuples_out"`
	StemInserts int64 `json:"stem_inserts"`
	StemProbes  int64 `json:"stem_probes"`
	JoinTuples  int64 `json:"join_tuples"`
	Routed      int64 `json:"routed_tuples"`

	SharedOps int64 `json:"shared_op_invocations"`
	TotalOps  int64 `json:"op_invocations"`

	PlanSwitches   int64 `json:"plan_switches"`
	ExploreActions int64 `json:"explore_actions"`
	ExploitActions int64 `json:"exploit_actions"`
	QStates        int64 `json:"qtable_states"`

	SubmitAdmitted   int64 `json:"submit_admitted"`
	SubmitOverloads  int64 `json:"submit_overload_rejected"`
	DeadlineSheds    int64 `json:"deadline_shed"`
	StarvationBoosts int64 `json:"starvation_boosts"`

	GCConcurrentQuanta int64   `json:"gc_concurrent_quanta"`
	PolicyCacheHits    int64   `json:"policy_cache_hits"`
	PolicyCacheMisses  int64   `json:"policy_cache_misses"`
	PolicyCacheStores  int64   `json:"policy_cache_stores"`
	WarmStartedQueries int64   `json:"warm_started_queries"`
	AdmitObserved      int64   `json:"admit_observed"`
	AdmitP50Us         int64   `json:"admit_latency_p50_micros"`
	AdmitP95Us         int64   `json:"admit_latency_p95_micros"`
	AdmitMeanUs        float64 `json:"admit_latency_mean_micros"`

	FilterNs int64 `json:"filter_ns"`
	BuildNs  int64 `json:"build_ns"`
	ProbeNs  int64 `json:"probe_ns"`
	RouteNs  int64 `json:"route_ns"`

	Faults  map[string]int64 `json:"episode_faults_by_kind,omitempty"`
	Tenants []TenantSLO      `json:"tenants,omitempty"`
}

// Snapshot copies the current counter values.
func (r *Registry) Snapshot() RegistrySnapshot {
	return RegistrySnapshot{
		Batches:         r.Batches.Load(),
		QueriesComplete: r.QueriesComplete.Load(),
		QueriesAborted:  r.QueriesAborted.Load(),
		Episodes:        r.Episodes.Load(),
		EpisodeFaults:   r.EpisodeFaults.Load(),
		SelIn:           r.SelIn.Load(),
		SelOut:          r.SelOut.Load(),
		StemInserts:     r.StemInserts.Load(),
		StemProbes:      r.StemProbes.Load(),
		JoinTuples:      r.JoinTuples.Load(),
		Routed:          r.Routed.Load(),
		SharedOps:       r.SharedOps.Load(),
		TotalOps:        r.TotalOps.Load(),
		PlanSwitches:    r.PlanSwitches.Load(),
		ExploreActions:  r.ExploreActions.Load(),
		ExploitActions:  r.ExploitActions.Load(),
		QStates:         r.QStates.Load(),

		SubmitAdmitted:   r.SubmitAdmitted.Load(),
		SubmitOverloads:  r.SubmitOverloads.Load(),
		DeadlineSheds:    r.DeadlineSheds.Load(),
		StarvationBoosts: r.StarvationBoosts.Load(),

		GCConcurrentQuanta: r.GCConcurrentQuanta.Load(),
		PolicyCacheHits:    r.PolicyCacheHits.Load(),
		PolicyCacheMisses:  r.PolicyCacheMisses.Load(),
		PolicyCacheStores:  r.PolicyCacheStores.Load(),
		WarmStartedQueries: r.WarmStartedQueries.Load(),
		AdmitObserved:      r.AdmitLatency.Count(),
		AdmitP50Us:         r.AdmitLatency.Quantile(0.50),
		AdmitP95Us:         r.AdmitLatency.Quantile(0.95),
		AdmitMeanUs:        r.AdmitLatency.Mean(),

		FilterNs: r.FilterNs.Load(),
		BuildNs:  r.BuildNs.Load(),
		ProbeNs:  r.ProbeNs.Load(),
		RouteNs:  r.RouteNs.Load(),
		Faults:   r.faultsCopy(),
		Tenants:  r.tenantsCopy(),
	}
}

// WriteProm renders the registry in the Prometheus text exposition format.
func (r *Registry) WriteProm(w io.Writer) error {
	s := r.Snapshot()
	p := NewPromWriter(w)
	p.Counter("roulette_batches_total", "Finished batch executions.", float64(s.Batches))
	p.Counter("roulette_queries_completed_total", "Queries that drained to completion.", float64(s.QueriesComplete))
	p.Counter("roulette_queries_aborted_total", "Queries cut by cancellation, deadlines, or faults.", float64(s.QueriesAborted))
	p.Counter("roulette_episodes_total", "Executed episodes.", float64(s.Episodes))
	p.Counter("roulette_episode_faults_total", "Episodes aborted by a fault.", float64(s.EpisodeFaults))
	faults := s.Faults
	for _, kind := range sortedKeys(faults) {
		p.Counter("roulette_episode_faults_by_kind_total", "Episodes aborted, by fault class.",
			float64(faults[kind]), Label{"kind", kind})
	}
	p.Counter("roulette_sel_tuples_in_total", "Tuples entering the selection phase.", float64(s.SelIn))
	p.Counter("roulette_sel_tuples_out_total", "Tuples surviving the selection phase.", float64(s.SelOut))
	p.Counter("roulette_stem_inserts_total", "STeM entries inserted.", float64(s.StemInserts))
	p.Counter("roulette_stem_probes_total", "STeM probe lookups.", float64(s.StemProbes))
	p.Counter("roulette_join_tuples_total", "Intermediate join output tuples.", float64(s.JoinTuples))
	p.Counter("roulette_routed_tuples_total", "Result tuples delivered to query sources.", float64(s.Routed))
	p.Counter("roulette_shared_op_invocations_total", "Operator invocations serving more than one query.", float64(s.SharedOps))
	p.Counter("roulette_op_invocations_total", "Counted operator invocations.", float64(s.TotalOps))
	p.Counter("roulette_plan_switches_total", "Episodes whose plan differed from the previous plan on the same relation.", float64(s.PlanSwitches))
	p.Counter("roulette_policy_explore_actions_total", "Policy decisions taken by epsilon-exploration.", float64(s.ExploreActions))
	p.Counter("roulette_policy_exploit_actions_total", "Policy decisions taken greedily from Q-values.", float64(s.ExploitActions))
	p.Gauge("roulette_qtable_states", "Q-table (state, action) entries of the most recent session.", float64(s.QStates))
	p.Counter("roulette_submit_admitted_total", "Stream submissions admitted past the admission controller.", float64(s.SubmitAdmitted))
	p.Counter("roulette_submit_overload_rejected_total", "Stream submissions rejected with ErrOverloaded (budget or rate limit).", float64(s.SubmitOverloads))
	p.Counter("roulette_deadline_shed_total", "Queries shed for unmeetable deadlines (at submit or mid-flight).", float64(s.DeadlineSheds))
	p.Counter("roulette_starvation_boosts_total", "Starvation-watchdog activations boosting an unserved tenant.", float64(s.StarvationBoosts))
	p.Counter("roulette_gc_concurrent_quanta", "GC quanta executed while episodes were in flight (concurrent, not stop-the-world).", float64(s.GCConcurrentQuanta))
	p.Counter("roulette_policy_cache_hits_total", "Policy-snapshot lookups that found a cached template.", float64(s.PolicyCacheHits))
	p.Counter("roulette_policy_cache_misses_total", "Policy-snapshot lookups that came up cold.", float64(s.PolicyCacheMisses))
	p.Counter("roulette_policy_cache_stores_total", "Q-table snapshots exported into the policy cache.", float64(s.PolicyCacheStores))
	p.Counter("roulette_warm_started_queries_total", "Queries that began executing under an imported learned prior.", float64(s.WarmStartedQueries))
	p.Counter("roulette_admissions_observed_total", "Live admissions with an observed submit-to-first-episode latency.", float64(s.AdmitObserved))
	p.Gauge("roulette_admit_latency_micros", "Submit-to-first-episode latency quantile upper bounds.",
		float64(s.AdmitP50Us), Label{"quantile", "0.5"})
	p.Gauge("roulette_admit_latency_micros", "Submit-to-first-episode latency quantile upper bounds.",
		float64(s.AdmitP95Us), Label{"quantile", "0.95"})
	for _, t := range s.Tenants {
		p.Counter("roulette_tenant_submit_admitted_total", "Admitted submissions, by tenant.",
			float64(t.Admitted), Label{"tenant", t.Tenant})
		p.Counter("roulette_tenant_overload_rejected_total", "ErrOverloaded rejections, by tenant.",
			float64(t.OverloadRejcs), Label{"tenant", t.Tenant})
		p.Counter("roulette_tenant_deadline_shed_total", "Deadline sheds, by tenant.",
			float64(t.DeadlineSheds), Label{"tenant", t.Tenant})
		p.Counter("roulette_tenant_retired_total", "Retired queries with an observed latency, by tenant.",
			float64(t.Retired), Label{"tenant", t.Tenant})
		p.Gauge("roulette_tenant_retire_latency_micros", "Retire-latency quantile upper bounds (submit to terminal outcome), by tenant.",
			float64(t.RetireP50Us), Label{"tenant", t.Tenant}, Label{"quantile", "0.5"})
		p.Gauge("roulette_tenant_retire_latency_micros", "Retire-latency quantile upper bounds (submit to terminal outcome), by tenant.",
			float64(t.RetireP95Us), Label{"tenant", t.Tenant}, Label{"quantile", "0.95"})
	}
	p.Counter("roulette_phase_seconds_total", "Cumulative execution time per operator class.",
		float64(s.FilterNs)/1e9, Label{"phase", "filter"})
	p.Counter("roulette_phase_seconds_total", "Cumulative execution time per operator class.",
		float64(s.BuildNs)/1e9, Label{"phase", "build"})
	p.Counter("roulette_phase_seconds_total", "Cumulative execution time per operator class.",
		float64(s.ProbeNs)/1e9, Label{"phase", "probe"})
	p.Counter("roulette_phase_seconds_total", "Cumulative execution time per operator class.",
		float64(s.RouteNs)/1e9, Label{"phase", "route"})
	return p.Err()
}
