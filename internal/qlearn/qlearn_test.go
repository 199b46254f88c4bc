package qlearn

import (
	"math"
	"testing"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/cost"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/query"
)

// The toy MDP: tuples from R can probe edge 0 (R⋈S) or edge 1 (R⋈T), then
// must take the remaining edge. Selectivities are correlated so that the
// myopically cheaper first probe (edge 0, selectivity 0.5 < 0.9) leads to a
// more expensive plan overall:
//
//	order S,T: 1→0.5→1.0   total cost ≈ 122.8 per input tuple
//	order T,S: 1→0.9→0.009 total cost ≈ 112.5 per input tuple
//
// A selectivity-greedy policy picks S first; Q-learning must learn T first.
const (
	lR  = uint64(1) << 0
	lRS = lR | 1<<1
	lRT = lR | 1<<2
)

func runToyEpisode(l *Learned, q bitset.Set, nIn int) (firstEdge int, measured float64) {
	m := cost.Default()
	cands0 := []int{0, 1}
	d := l.ChooseJoin(0, lR, q, cands0)
	first := cands0[d]

	var entries []policy.LogEntry
	if first == 0 {
		out1 := nIn / 2
		out2 := out1 * 2
		entries = []policy.LogEntry{
			{Phase: policy.JoinPhase, Lineage: lR, Q: q, Op: 0, NIn: nIn, NOut: out1, NDiv: -1,
				MainLineage: lRS, QMain: q, MainCands: []int{1}},
			{Phase: policy.JoinPhase, Lineage: lRS, Q: q, Op: 1, NIn: out1, NOut: out2, NDiv: -1,
				MainLineage: lRS | lRT, QMain: q, MainCands: nil},
		}
		measured = m.Cost(cost.Join, float64(nIn), float64(out1)) + m.Cost(cost.Join, float64(out1), float64(out2))
	} else {
		out1 := nIn * 9 / 10
		out2 := out1 / 100
		entries = []policy.LogEntry{
			{Phase: policy.JoinPhase, Lineage: lR, Q: q, Op: 1, NIn: nIn, NOut: out1, NDiv: -1,
				MainLineage: lRT, QMain: q, MainCands: []int{0}},
			{Phase: policy.JoinPhase, Lineage: lRT, Q: q, Op: 0, NIn: out1, NOut: out2, NDiv: -1,
				MainLineage: lRS | lRT, QMain: q, MainCands: nil},
		}
		measured = m.Cost(cost.Join, float64(nIn), float64(out1)) + m.Cost(cost.Join, float64(out1), float64(out2))
	}
	l.Observe(entries)
	return first, measured
}

func TestLearnsLongTermOptimalOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epsilon = 0.1 // explore enough to see both arms quickly
	l := New(cfg)
	q := bitset.NewFull(1)

	for ep := 0; ep < 2000; ep++ {
		runToyEpisode(l, q, 1000)
	}
	// After convergence, greedy-in-Q decisions must pick edge 1 (T first).
	cfg2 := cfg
	picked1 := 0
	_ = cfg2
	for i := 0; i < 100; i++ {
		if d := l.ChooseJoin(0, lR, q, []int{0, 1}); d == 1 {
			picked1++
		}
	}
	if picked1 < 85 { // ε=0.1 still explores ~10%
		t.Fatalf("policy picks long-term-optimal edge only %d/100 times", picked1)
	}

	// The Q-value estimate at the root must approach the true optimal cost
	// per input tuple (≈112.5).
	est := l.EstimatedBestCost(policy.JoinPhase, 0, lR, q, []int{0, 1})
	if math.Abs(est-112.5) > 10 {
		t.Errorf("estimated best cost per tuple = %.1f, want ≈112.5", est)
	}
}

func TestGreedyPicksMyopicOrderOnSameMDP(t *testing.T) {
	// Contrast: the greedy selectivity policy, fed the same observations,
	// keeps picking edge 0 — the paper's motivating failure.
	g := policy.NewGreedy()
	q := bitset.NewFull(1)
	// Feed it both arms' stats.
	g.Observe([]policy.LogEntry{
		{Phase: policy.JoinPhase, Op: 0, NIn: 1000, NOut: 500},
		{Phase: policy.JoinPhase, Op: 1, NIn: 1000, NOut: 900},
	})
	if d := g.ChooseJoin(0, lR, q, []int{0, 1}); d != 0 {
		t.Fatalf("greedy picked %d, expected the myopic edge 0", d)
	}
}

func TestDivergenceUpdatePath(t *testing.T) {
	// One shared step with divergence: Q={0,1}, edge 0 belongs to q0 only.
	l := New(Config{Mu: 0.5, Epsilon: 0, Gamma: 1, Seed: 1})
	q := bitset.NewFull(2)
	q0 := bitset.FromIDs(2, 0)
	q1 := bitset.FromIDs(2, 1)

	e := policy.LogEntry{
		Phase: policy.JoinPhase, Lineage: lR, Q: q, Op: 0,
		NIn: 100, NOut: 50, NDiv: 40,
		MainLineage: lRS, QMain: q0, MainCands: nil,
		DivQ: q1, DivCands: nil,
	}
	l.Observe([]policy.LogEntry{e})
	if l.TableSize() != 1 {
		t.Fatalf("table size = %d, want 1", l.TableSize())
	}
	// Expected r = (−κj·100 − λj·50)/100 + (−κσ·100 − λσ·40)/100, µ=0.5.
	m := cost.Default()
	wantR := (-m.Kappa[cost.Join]*100-m.Lambda[cost.Join]*50)/100 +
		(-m.Kappa[cost.RoutingSelection]*100-m.Lambda[cost.RoutingSelection]*40)/100
	got := -l.EstimatedBestCost(policy.JoinPhase, 0, lR, q, []int{0})
	if math.Abs(got-0.5*wantR) > 1e-9 {
		t.Errorf("Q after one update = %v, want %v", got, 0.5*wantR)
	}
}

func TestZeroInputEntriesSkipped(t *testing.T) {
	l := New(DefaultConfig())
	l.Observe([]policy.LogEntry{{Phase: policy.JoinPhase, Lineage: lR, Q: bitset.NewFull(1), Op: 0, NIn: 0, NOut: 0, NDiv: -1}})
	if l.TableSize() != 0 {
		t.Errorf("zero-input entry created a table entry")
	}
}

func TestSelectionPhaseKeysAreDistinctPerInstance(t *testing.T) {
	l := New(Config{Mu: 1, Epsilon: 0, Gamma: 1, Seed: 1})
	q := bitset.NewFull(1)
	mk := func(inst int, nOut int) policy.LogEntry {
		return policy.LogEntry{
			Phase: policy.SelPhase, Inst: query.InstID(inst), Lineage: 0, Q: q, Op: 0,
			NIn: 100, NOut: nOut, NDiv: -1, MainLineage: 1, QMain: q,
		}
	}
	l.Observe([]policy.LogEntry{mk(0, 10), mk(1, 90)})
	if l.TableSize() != 2 {
		t.Fatalf("selection states on different instances collided: table size %d", l.TableSize())
	}
}

func TestEpsilonExploresUniformly(t *testing.T) {
	l := New(Config{Mu: 0.2, Epsilon: 1, Gamma: 1, Seed: 42})
	q := bitset.NewFull(1)
	counts := [3]int{}
	for i := 0; i < 3000; i++ {
		counts[l.ChooseJoin(0, lR, q, []int{0, 1, 2})]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("candidate %d chosen %d/3000 with ε=1", i, c)
		}
	}
}

// TestProportionalityInvariance checks the §4.3 reduction empirically: the
// update rule normalizes per input tuple, so scaling every cardinality in a
// log by a constant must leave the learned Q-values (and therefore all
// decisions) unchanged.
func TestProportionalityInvariance(t *testing.T) {
	mkLog := func(scale int) []policy.LogEntry {
		q := bitset.NewFull(2)
		q0 := bitset.FromIDs(2, 0)
		q1 := bitset.FromIDs(2, 1)
		return []policy.LogEntry{
			{Phase: policy.JoinPhase, Lineage: lR, Q: q, Op: 0,
				NIn: 100 * scale, NOut: 60 * scale, NDiv: 40 * scale,
				MainLineage: lRS, QMain: q0, MainCands: []int{1},
				DivQ: q1, DivCands: []int{1}},
			{Phase: policy.JoinPhase, Lineage: lRS, Q: q0, Op: 1,
				NIn: 60 * scale, NOut: 30 * scale, NDiv: -1,
				MainLineage: lRS | lRT, QMain: q0, MainCands: nil},
		}
	}
	a := New(Config{Mu: 0.3, Epsilon: 0, Gamma: 1, Seed: 1})
	b := New(Config{Mu: 0.3, Epsilon: 0, Gamma: 1, Seed: 1})
	for i := 0; i < 50; i++ {
		a.Observe(mkLog(1))
		b.Observe(mkLog(7))
	}
	q := bitset.NewFull(2)
	va := a.EstimatedBestCost(policy.JoinPhase, 0, lR, q, []int{0})
	vb := b.EstimatedBestCost(policy.JoinPhase, 0, lR, q, []int{0})
	if math.Abs(va-vb) > 1e-9 {
		t.Errorf("Q-values differ under input scaling: %v vs %v", va, vb)
	}
	if va == 0 {
		t.Error("no learning happened")
	}
}

// TestActionCounts checks the explore/exploit decision counters at the
// epsilon extremes.
func TestActionCounts(t *testing.T) {
	q := bitset.NewFull(4)
	cands := []int{0, 1, 2}

	greedy := New(Config{Mu: 0.2, Epsilon: 0, Gamma: 1, Seed: 1})
	for i := 0; i < 20; i++ {
		greedy.ChooseJoin(0, 1, q, cands)
	}
	if ex, gr := greedy.ActionCounts(); ex != 0 || gr != 20 {
		t.Errorf("epsilon=0: counts = (%d, %d), want (0, 20)", ex, gr)
	}

	explorer := New(Config{Mu: 0.2, Epsilon: 1, Gamma: 1, Seed: 1})
	for i := 0; i < 20; i++ {
		explorer.ChooseSel(0, 0, q, cands)
	}
	if ex, gr := explorer.ActionCounts(); ex != 20 || gr != 0 {
		t.Errorf("epsilon=1: counts = (%d, %d), want (20, 0)", ex, gr)
	}
}
