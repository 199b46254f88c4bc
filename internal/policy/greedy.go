package policy

import (
	"sync"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/query"
)

// Greedy is the selectivity-based runtime-ordering heuristic used by CACQ
// and CJOIN: at every step it picks the candidate with the lowest observed
// selectivity. It ignores operator correlations, sharing, and the long-term
// effects of planning — the limitations RouLette's learned policy is
// designed to overcome (§2.1, §6.2).
type Greedy struct {
	mu    sync.Mutex
	joins OpStats
	sels  OpStats
}

// NewGreedy builds a greedy policy with no observations yet.
func NewGreedy() *Greedy { return &Greedy{} }

// ChooseJoin picks the candidate edge with the lowest observed selectivity;
// unobserved edges default to selectivity 1 so that observed low-selectivity
// edges win, and ties fall to the lowest edge ID (deterministic).
func (g *Greedy) ChooseJoin(_ query.InstID, _ uint64, _ bitset.Set, cands []int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	best, bestSel := 0, g.joins.Selectivity(cands[0], 1)
	for i := 1; i < len(cands); i++ {
		if s := g.joins.Selectivity(cands[i], 1); s < bestSel {
			best, bestSel = i, s
		}
	}
	return best
}

// ChooseSel picks the selection operator with the lowest observed
// selectivity (most filtering first).
func (g *Greedy) ChooseSel(_ query.InstID, _ uint64, _ bitset.Set, cands []int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	best, bestSel := 0, g.sels.Selectivity(cands[0], 1)
	for i := 1; i < len(cands); i++ {
		if s := g.sels.Selectivity(cands[i], 1); s < bestSel {
			best, bestSel = i, s
		}
	}
	return best
}

// Observe accumulates per-operator selectivity statistics.
func (g *Greedy) Observe(entries []LogEntry) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := range entries {
		e := &entries[i]
		if e.NIn == 0 {
			continue
		}
		switch e.Phase {
		case JoinPhase:
			g.joins.Record(e.Op, e.NIn, e.NOut)
		case SelPhase:
			g.sels.Record(e.Op, e.NIn, e.NOut)
		}
	}
}
