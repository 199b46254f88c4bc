package exec

import (
	"sync"
	"sync/atomic"

	"github.com/roulette-db/roulette/internal/query"
)

// Source is a RouLette source: the per-query buffer routers multicast SPJ
// result tuples into, from which host-side operators (aggregates, sorts,
// outer plans) consume (§3). Rows are projected to the instances the host
// consumer actually needs (adaptive projections make everything else
// unavailable by design).
type Source struct {
	// Insts lists the vID columns each routed row carries, in order.
	Insts []query.InstID

	collect bool
	count   atomic.Int64

	mu   sync.Mutex
	rows []int32 // flattened: len(Insts) vIDs per row
}

// NewSource creates a source expecting rows over the given instances.
// When collect is false the source only counts rows (COUNT(*) consumers
// and large throughput benchmarks).
func NewSource(insts []query.InstID, collect bool) *Source {
	return &Source{Insts: insts, collect: collect && len(insts) > 0}
}

// Append adds routed rows; flat must hold len(Insts) vIDs per row.
func (s *Source) Append(flat []int32, nRows int) {
	s.count.Add(int64(nRows))
	if !s.collect || nRows == 0 {
		return
	}
	s.mu.Lock()
	s.rows = append(s.rows, flat...)
	s.mu.Unlock()
}

// Count returns the number of routed result tuples.
func (s *Source) Count() int64 { return s.count.Load() }

// Rows returns the collected rows (flattened) and the row width. The slice
// aliases internal storage; callers must not mutate it.
func (s *Source) Rows() ([]int32, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows, len(s.Insts)
}

// Reset clears collected rows and the count (used when a session reuses
// sources across runs).
func (s *Source) Reset() {
	s.mu.Lock()
	s.rows = nil
	s.mu.Unlock()
	s.count.Store(0)
}

// Stats aggregates executor counters; all fields are atomically updated and
// safe to read while workers run. Times are cumulative nanoseconds per
// §6.3's breakdown categories. Workers accumulate every counter in plain
// per-worker arena fields and fold them in here once per episode (see
// Worker.foldStats), so the hot loops never touch shared cache lines.
type Stats struct {
	Episodes atomic.Int64

	SelIn  atomic.Int64 // tuples entering the selection phase
	SelOut atomic.Int64 // tuples surviving it (inserted into STeMs)

	Inserted atomic.Int64 // STeM entries inserted

	JoinOut atomic.Int64 // probe output tuples: the Fig. 13 cost metric

	Routed atomic.Int64 // tuples delivered to sources

	FilterNs atomic.Int64 // selection phase
	BuildNs  atomic.Int64 // STeM inserts
	ProbeNs  atomic.Int64 // join phase probes + routing selections
	RouteNs  atomic.Int64 // routers

	// Operator-invocation counters: one invocation is one operator applied
	// to one vector (a selection step, a probe node, a routing selection, or
	// a router). SharedOps counts invocations serving more than one query and
	// OpQueries sums the queries served, so SharedOps/TotalOps() is the
	// batch's sharing factor and OpQueries/TotalOps() its mean fan-out.
	FilterOps   atomic.Int64
	ProbeOps    atomic.Int64
	RouteSelOps atomic.Int64
	RouterOps   atomic.Int64
	SharedOps   atomic.Int64
	OpQueries   atomic.Int64
}

// TotalOps returns the total counted operator invocations.
func (s *Stats) TotalOps() int64 {
	return s.FilterOps.Load() + s.ProbeOps.Load() + s.RouteSelOps.Load() + s.RouterOps.Load()
}

// Breakdown returns the §6.3-style share of time per category.
func (s *Stats) Breakdown() (filter, build, probe, route float64) {
	f, b, p, r := float64(s.FilterNs.Load()), float64(s.BuildNs.Load()), float64(s.ProbeNs.Load()), float64(s.RouteNs.Load())
	tot := f + b + p + r
	if tot == 0 {
		return 0, 0, 0, 0
	}
	return f / tot, b / tot, p / tot, r / tot
}
