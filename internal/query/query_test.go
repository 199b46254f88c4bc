package query

import (
	"testing"

	"github.com/roulette-db/roulette/internal/bitset"
)

// twoQueryBatch builds the paper's Figure 1 pair:
//
//	Q0: R ⋈ S ⋈ T ⋈ U  (R.a=S.a, R.b=T.b, S.c=U.c)
//	Q1: R ⋈ S ⋈ U ⋈ V  (R.a=S.a, S.c=U.c, S.d=V.d)
func twoQueryBatch(t *testing.T) *Batch {
	t.Helper()
	q0 := &Query{
		Tag:  "q0",
		Rels: []RelRef{{Table: "R"}, {Table: "S"}, {Table: "T"}, {Table: "U"}},
		Joins: []Join{
			{"R", "a", "S", "a"},
			{"R", "b", "T", "b"},
			{"S", "c", "U", "c"},
		},
	}
	q1 := &Query{
		Tag:  "q1",
		Rels: []RelRef{{Table: "R"}, {Table: "S"}, {Table: "U"}, {Table: "V"}},
		Joins: []Join{
			{"R", "a", "S", "a"},
			{"S", "c", "U", "c"},
			{"S", "d", "V", "d"},
		},
		Filters: []Filter{{Alias: "R", Col: "x", Lo: 0, Hi: 10}},
	}
	b, err := Compile([]*Query{q0, q1})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return b
}

func TestCompileSharesInstancesAndEdges(t *testing.T) {
	b := twoQueryBatch(t)
	if len(b.Insts) != 5 { // R S T U V
		t.Fatalf("instances = %d, want 5", len(b.Insts))
	}
	if len(b.Edges) != 4 { // R-S, R-T, S-U, S-V
		t.Fatalf("edges = %d, want 4", len(b.Edges))
	}
	// R-S and S-U must be shared by both queries.
	shared := 0
	for _, e := range b.Edges {
		if e.Queries.Count() == 2 {
			shared++
		}
	}
	if shared != 2 {
		t.Errorf("shared edges = %d, want 2", shared)
	}
	// Filter becomes one grouped filter on (R, x) owned by q1 only.
	if len(b.SelCols) != 1 {
		t.Fatalf("selcols = %d, want 1", len(b.SelCols))
	}
	sc := b.SelCols[0]
	q0, q1 := b.QIDAt(0), b.QIDAt(1)
	if !sc.Queries.Contains(q1) || sc.Queries.Contains(q0) {
		t.Errorf("selcol queries = %v", sc.Queries)
	}
	if len(sc.Preds) != 1 || sc.Preds[0].QID != q1 || sc.Preds[0].Lo != 0 || sc.Preds[0].Hi != 10 {
		t.Errorf("selcol preds = %+v, want q1's [0,10]", sc.Preds)
	}
}

func TestCandidates(t *testing.T) {
	b := twoQueryBatch(t)
	g := b.Snapshot()
	rInst, _ := b.InstOfAlias(0, "R")
	both := bitset.NewFull(2)

	// From {R} with both queries: candidates are R-S (shared) and R-T (q0).
	cands := g.Candidates(nil, 1<<rInst, both)
	if len(cands) != 2 {
		t.Fatalf("cands from {R} = %v, want 2 edges", cands)
	}
	// From {R,S}: R-T (q0), S-U (both), S-V (q1).
	sInst, _ := b.InstOfAlias(0, "S")
	l := uint64(1<<rInst | 1<<sInst)
	cands = g.Candidates(nil, l, both)
	if len(cands) != 3 {
		t.Fatalf("cands from {R,S} = %v, want 3 edges", cands)
	}
	// Only q0: S-V must disappear.
	q0Only := bitset.FromIDs(2, 0)
	cands = g.Candidates(cands[:0], l, q0Only)
	if len(cands) != 2 {
		t.Fatalf("cands from {R,S} for q0 = %v, want 2 edges", cands)
	}
	// Full lineage of q0 with q0 only: no candidates.
	var full uint64
	for _, inst := range b.QueryInsts(0) {
		full |= 1 << inst
	}
	cands = g.Candidates(nil, full, q0Only)
	if len(cands) != 0 {
		t.Fatalf("cands at q0's full lineage = %v, want none", cands)
	}
}

func TestQueryEdges(t *testing.T) {
	b := twoQueryBatch(t)
	if got := len(b.QueryEdges(0)); got != 3 {
		t.Errorf("q0 edges = %d, want 3", got)
	}
	if got := len(b.QueryEdges(1)); got != 3 {
		t.Errorf("q1 edges = %d, want 3", got)
	}
}

func TestCompileCyclicBecomesResidual(t *testing.T) {
	q := &Query{
		Rels: []RelRef{{Table: "R"}, {Table: "S"}, {Table: "T"}},
		Joins: []Join{
			{"R", "a", "S", "a"},
			{"S", "b", "T", "b"},
			{"T", "c", "R", "c"},
		},
	}
	b, err := Compile([]*Query{q})
	if err != nil {
		t.Fatalf("cyclic join graph rejected: %v", err)
	}
	if len(b.Edges) != 2 {
		t.Errorf("tree edges = %d, want 2", len(b.Edges))
	}
	if len(b.Residuals) != 1 {
		t.Fatalf("residuals = %d, want 1", len(b.Residuals))
	}
	r := b.Residuals[0]
	if r.QID != 0 || r.A == r.B {
		t.Errorf("residual = %+v", r)
	}
	// Self-comparison predicates are still rejected.
	bad := &Query{
		Rels:  []RelRef{{Table: "R"}, {Table: "S"}},
		Joins: []Join{{"R", "a", "S", "a"}, {"R", "b", "R", "c"}},
	}
	if _, err := Compile([]*Query{bad}); err == nil {
		t.Error("same-instance join accepted")
	}
}

func TestCompileRejectsDisconnected(t *testing.T) {
	q := &Query{
		Rels:  []RelRef{{Table: "R"}, {Table: "S"}, {Table: "T"}},
		Joins: []Join{{"R", "a", "S", "a"}},
	}
	if _, err := Compile([]*Query{q}); err == nil {
		t.Error("disconnected join graph accepted (too few joins)")
	}
}

func TestCompileRejectsBadRefs(t *testing.T) {
	bad := []*Query{
		{Rels: nil},
		{
			Rels:  []RelRef{{Table: "R"}, {Table: "S"}},
			Joins: []Join{{"R", "a", "X", "a"}},
		},
		{
			Rels:    []RelRef{{Table: "R"}},
			Filters: []Filter{{Alias: "Z", Col: "c", Lo: 0, Hi: 1}},
		},
		{
			Rels:    []RelRef{{Table: "R"}},
			Filters: []Filter{{Alias: "R", Col: "c", Lo: 5, Hi: 1}},
		},
		{
			Rels: []RelRef{{Table: "R", Alias: "x"}, {Table: "S", Alias: "x"}},
		},
	}
	for i, q := range bad {
		if _, err := Compile([]*Query{q}); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

func TestSelfJoinGetsTwoInstances(t *testing.T) {
	q := &Query{
		Rels:  []RelRef{{Table: "R", Alias: "r1"}, {Table: "R", Alias: "r2"}},
		Joins: []Join{{"r1", "a", "r2", "b"}},
	}
	b, err := Compile([]*Query{q})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if len(b.Insts) != 2 {
		t.Fatalf("self-join instances = %d, want 2", len(b.Insts))
	}
	if b.Insts[0].Table != "R" || b.Insts[1].Table != "R" || b.Insts[0].Occ == b.Insts[1].Occ {
		t.Errorf("instances = %+v", b.Insts)
	}
}

func TestInstanceSharingAcrossQueries(t *testing.T) {
	// Two queries both using R once must share instance (R,0).
	mk := func(tag string) *Query {
		return &Query{
			Tag:   tag,
			Rels:  []RelRef{{Table: "R"}, {Table: "S"}},
			Joins: []Join{{"R", "a", "S", "a"}},
		}
	}
	b, err := Compile([]*Query{mk("a"), mk("b")})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Insts) != 2 {
		t.Fatalf("instances = %d, want 2", len(b.Insts))
	}
	for _, in := range b.Insts {
		if in.Queries.Count() != 2 {
			t.Errorf("instance %s queries = %v", in.Table, in.Queries)
		}
	}
	if len(b.Edges) != 1 || b.Edges[0].Queries.Count() != 2 {
		t.Errorf("edge sharing broken: %+v", b.Edges)
	}
}
