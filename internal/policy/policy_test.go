package policy

import (
	"testing"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/query"
)

func toyBatch(t *testing.T) *query.Batch {
	t.Helper()
	q0 := &query.Query{
		Rels: []query.RelRef{{Table: "R"}, {Table: "S"}, {Table: "T"}},
		Joins: []query.Join{
			{LeftAlias: "R", LeftCol: "a", RightAlias: "S", RightCol: "a"},
			{LeftAlias: "R", LeftCol: "b", RightAlias: "T", RightCol: "b"},
		},
	}
	q1 := &query.Query{
		Rels: []query.RelRef{{Table: "R"}, {Table: "S"}},
		Joins: []query.Join{
			{LeftAlias: "R", LeftCol: "a", RightAlias: "S", RightCol: "a"},
		},
	}
	b, err := query.Compile([]*query.Query{q0, q1})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOpStats(t *testing.T) {
	var s OpStats
	if got := s.Selectivity(0, 0.5); got != 0.5 {
		t.Errorf("default selectivity = %v", got)
	}
	s.Record(0, 100, 25)
	s.Record(0, 100, 35)
	if got := s.Selectivity(0, 1); got != 0.3 {
		t.Errorf("selectivity = %v, want 0.3", got)
	}
	// Recording a far op grows the table; ops in between stay unobserved.
	s.Record(70, 10, 1)
	if got := s.Selectivity(70, 1); got != 0.1 {
		t.Errorf("grown op selectivity = %v, want 0.1", got)
	}
	if got := s.Selectivity(40, 0.5); got != 0.5 {
		t.Errorf("unobserved op below the grown one = %v, want the default", got)
	}
	if got := s.Selectivity(71, 0.5); got != 0.5 {
		t.Errorf("op past the table = %v, want the default", got)
	}
}

func TestGreedyPrefersLowSelectivity(t *testing.T) {
	g := NewGreedy()
	q := bitset.NewFull(2)

	// Unobserved: ties break to the first candidate.
	if got := g.ChooseJoin(0, 1, q, []int{0, 1}); got != 0 {
		t.Errorf("unobserved choice = %d", got)
	}
	g.Observe([]LogEntry{
		{Phase: JoinPhase, Op: 0, NIn: 100, NOut: 90},
		{Phase: JoinPhase, Op: 1, NIn: 100, NOut: 10},
	})
	if got := g.ChooseJoin(0, 1, q, []int{0, 1}); got != 1 {
		t.Errorf("greedy chose %d, want the selective edge", got)
	}
	// Selection phase analogous.
	g.Observe([]LogEntry{
		{Phase: SelPhase, Op: 2, NIn: 100, NOut: 5},
		{Phase: SelPhase, Op: 3, NIn: 100, NOut: 95},
	})
	if got := g.ChooseSel(0, 0, q, []int{3, 2}); got != 1 {
		t.Errorf("greedy sel chose %d, want the selective filter", got)
	}
	// Zero-input entries must not poison the stats.
	g.Observe([]LogEntry{{Phase: JoinPhase, Op: 1, NIn: 0, NOut: 0}})
	if got := g.ChooseJoin(0, 1, q, []int{0, 1}); got != 1 {
		t.Error("zero-input observation changed the decision")
	}
}

func TestStaticFollowsOrders(t *testing.T) {
	b := toyBatch(t)
	rInst, _ := b.InstOfAlias(0, "R")
	// Edge IDs: R-S shared and R-T (q0).
	var rs, rt int = -1, -1
	for _, e := range b.Edges {
		if e.Queries.Count() == 2 {
			rs = e.ID
		} else {
			rt = e.ID
		}
	}
	q0, q1 := b.QIDAt(0), b.QIDAt(1)
	orders := map[OrderKey][]int{
		{QID: q0, Source: rInst}: {rt, rs},
		{QID: q1, Source: rInst}: {rs},
	}
	s := NewStatic(b, orders)

	both := bitset.NewFull(2)
	cands := []int{rs, rt}
	// The earliest query in caller order is q0: its order says R-T first.
	if got := cands[s.ChooseJoin(rInst, 1<<rInst, both, cands)]; got != rt {
		t.Errorf("static chose edge %d, want %d (q0's first)", got, rt)
	}
	// Only q1 present: R-S.
	if got := cands[s.ChooseJoin(rInst, 1<<rInst, bitset.FromIDs(2, q1), []int{rs})]; got != rs {
		t.Errorf("static for q1 chose %d", got)
	}
	// Order entries already in the lineage are skipped.
	lineage := uint64(1<<rInst) | 1<<b.Edges[rt].B | 1<<b.Edges[rt].A
	got := s.ChooseJoin(rInst, lineage, bitset.FromIDs(2, q0), []int{rs})
	if got != 0 {
		t.Errorf("static with exhausted prefix = %d", got)
	}
	// Missing order: fall back to candidate 0 without panicking.
	if got := s.ChooseJoin(99, 1, both, []int{rs, rt}); got != 0 {
		t.Errorf("fallback = %d", got)
	}
}

func TestStaticSelGreedy(t *testing.T) {
	s := NewStatic(toyBatch(t), nil)
	q := bitset.NewFull(1)
	s.Observe([]LogEntry{
		{Phase: SelPhase, Op: 0, NIn: 10, NOut: 9},
		{Phase: SelPhase, Op: 1, NIn: 10, NOut: 1},
	})
	if got := s.ChooseSel(0, 0, q, []int{0, 1}); got != 1 {
		t.Errorf("static sel chose %d", got)
	}
}

func TestRandomIsUniformAndInRange(t *testing.T) {
	r := NewRandom(7)
	q := bitset.NewFull(1)
	counts := [4]int{}
	for i := 0; i < 4000; i++ {
		c := r.ChooseJoin(0, 1, q, []int{0, 1, 2, 3})
		if c < 0 || c > 3 {
			t.Fatalf("choice out of range: %d", c)
		}
		counts[c]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("candidate %d chosen %d/4000", i, c)
		}
	}
	r.Observe(nil) // no-op must not panic
	if got := r.ChooseSel(0, 0, q, []int{5}); got != 0 {
		t.Errorf("single-candidate choice = %d", got)
	}
}
