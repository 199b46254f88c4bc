// Package policy defines the planning-policy interface that RouLette's eddy
// consults during multi-step optimization, plus the non-learned policies the
// paper compares against: the greedy selectivity-based heuristic of
// CACQ/CJOIN, a random policy, and static policies that replay fixed
// per-query plans (the execution vehicle for the Stitch&Share and
// Match&Share online-sharing prototypes, §6.1).
package policy

import (
	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/query"
)

// Phase tags which plan a log entry or decision belongs to.
type Phase int

// The two episode phases (§3: selection-phase then join-phase).
const (
	SelPhase Phase = iota
	JoinPhase
)

// LogEntry records one executed operator for policy adaptation: the state
// it was chosen in, observed input/output sizes, and — so that bootstrapped
// updates can evaluate the successor states — the candidate sets of the one
// or two states the decision transitioned to.
type LogEntry struct {
	Phase   Phase
	Inst    query.InstID // selection phase: the relation being filtered
	Lineage uint64       // join phase: instance bitmask; sel phase: applied-op bitmask
	Q       bitset.Set
	Op      int // edge ID (join phase) or selection-op ID (sel phase)

	NIn  int
	NOut int
	NDiv int // routing-selection output size; -1 when the decision did not diverge

	MainLineage uint64     // successor lineage after applying Op
	QMain       bitset.Set // Q ∩ Q_op
	MainCands   []int      // candidates at the main successor state
	DivQ        bitset.Set // Q − Q_op (valid when NDiv >= 0)
	DivCands    []int      // candidates at the divergence successor state
}

// Policy chooses operators during multi-step optimization and adapts from
// execution logs. Implementations must be safe for concurrent use by
// multiple workers.
type Policy interface {
	// ChooseJoin returns the index into cands of the edge to probe next for
	// virtual vector (lineage, q) originating from source. cands is never
	// empty.
	ChooseJoin(source query.InstID, lineage uint64, q bitset.Set, cands []int) int
	// ChooseSel returns the index into cands of the selection operator to
	// run next on inst, given the bitmask of already-applied operators.
	ChooseSel(inst query.InstID, applied uint64, q bitset.Set, cands []int) int
	// Observe feeds one episode's execution log back into the policy.
	Observe(entries []LogEntry)
}

// OpStats tracks per-operator selectivity estimates from observed input and
// output cardinalities. It is the statistic the greedy policy ranks by. The
// zero value is ready to use and grows to the highest operator ID recorded.
type OpStats struct {
	in  []float64
	out []float64
}

// Record accumulates one observation for op.
func (s *OpStats) Record(op, nIn, nOut int) {
	for len(s.in) <= op {
		s.in = append(s.in, 0)
		s.out = append(s.out, 0)
	}
	s.in[op] += float64(nIn)
	s.out[op] += float64(nOut)
}

// Selectivity returns op's observed output/input ratio, or def when the
// operator has not been observed yet.
func (s *OpStats) Selectivity(op int, def float64) float64 {
	if op >= len(s.in) || s.in[op] == 0 {
		return def
	}
	return s.out[op] / s.in[op]
}
