package policy

import (
	"math/rand"
	"sync"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/query"
)

// OrderKey identifies a per-query probe order: the plan a tuple of source
// follows for query QID.
type OrderKey struct {
	QID    int
	Source query.InstID
}

// Static replays fixed per-query join orders inside the shared adaptive
// executor. It is the execution vehicle for the online-sharing baselines:
// Stitch&Share (per-query optimizer plans merged on common prefixes, as in
// QPipe/SharedDB) and Match&Share (DataPath-style incremental global-plan
// extension) both reduce to order maps consumed by this policy. Queries
// whose orders share a prefix stay together in the global plan; the first
// differing edge diverges them, which is exactly the prefix-sharing
// semantics of those systems.
//
// Selection ordering is delegated to an embedded greedy chooser: selection
// order is not what the online-sharing baselines differ on.
type Static struct {
	Orders map[OrderKey][]int // edge IDs in probe order

	// pos is the batch's query ID -> caller position map (query.Batch.Pos):
	// the leading query is the earliest in the caller's order, whatever the
	// numbering.
	pos func(qid int) int

	mu   sync.Mutex
	sels OpStats
}

// NewStatic builds a static policy over the given per-(query, source) edge
// orders of batch b's queries.
func NewStatic(b *query.Batch, orders map[OrderKey][]int) *Static {
	return &Static{Orders: orders, pos: b.Pos}
}

// ChooseJoin follows the plan of the leading query present in q — the one
// earliest in the caller's order: its first ordered edge not yet in the
// lineage. Queries with identical prefixes therefore share; others are
// diverged out by the eddy.
func (s *Static) ChooseJoin(source query.InstID, lineage uint64, q bitset.Set, cands []int) int {
	qid := -1
	q.ForEach(func(id int) {
		if qid == -1 || s.pos(id) < s.pos(qid) {
			qid = id
		}
	})
	if qid >= 0 {
		order := s.Orders[OrderKey{QID: qid, Source: source}]
		for _, e := range order {
			for ci, c := range cands {
				if c == e {
					return ci
				}
			}
		}
	}
	return 0
}

// ChooseSel picks greedily by observed selectivity.
func (s *Static) ChooseSel(_ query.InstID, _ uint64, _ bitset.Set, cands []int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	best, bestSel := 0, s.sels.Selectivity(cands[0], 1)
	for i := 1; i < len(cands); i++ {
		if sel := s.sels.Selectivity(cands[i], 1); sel < bestSel {
			best, bestSel = i, sel
		}
	}
	return best
}

// Observe tracks selection selectivities only; join orders are fixed.
func (s *Static) Observe(entries []LogEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range entries {
		e := &entries[i]
		if e.Phase == SelPhase && e.NIn > 0 {
			s.sels.Record(e.Op, e.NIn, e.NOut)
		}
	}
}

// Random chooses uniformly at random; useful as a floor in experiments and
// for exercising the executor in property tests.
type Random struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandom builds a random policy from a seed.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// ChooseJoin picks a uniformly random candidate.
func (r *Random) ChooseJoin(_ query.InstID, _ uint64, _ bitset.Set, cands []int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Intn(len(cands))
}

// ChooseSel picks a uniformly random candidate.
func (r *Random) ChooseSel(_ query.InstID, _ uint64, _ bitset.Set, cands []int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Intn(len(cands))
}

// Observe is a no-op.
func (r *Random) Observe([]LogEntry) {}
