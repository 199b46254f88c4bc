package query

import (
	"fmt"
	"testing"

	"github.com/roulette-db/roulette/internal/bitset"
)

// figure1Queries returns the two-query pair of twoQueryBatch as separate
// values, with a shared grouped filter on R.x, for incremental-compilation
// tests.
func figure1Queries() (*Query, *Query) {
	q0 := &Query{
		Tag:  "q0",
		Rels: []RelRef{{Table: "R"}, {Table: "S"}, {Table: "T"}, {Table: "U"}},
		Joins: []Join{
			{"R", "a", "S", "a"},
			{"R", "b", "T", "b"},
			{"S", "c", "U", "c"},
		},
		Filters: []Filter{{Alias: "R", Col: "x", Lo: 0, Hi: 10}},
	}
	q1 := &Query{
		Tag:  "q1",
		Rels: []RelRef{{Table: "R"}, {Table: "S"}, {Table: "U"}, {Table: "V"}},
		Joins: []Join{
			{"R", "a", "S", "a"},
			{"S", "c", "U", "c"},
			{"S", "d", "V", "d"},
		},
		Filters: []Filter{{Alias: "R", Col: "x", Lo: 5, Hi: 20}},
	}
	return q0, q1
}

func TestExtendReusesSharedOperators(t *testing.T) {
	q0, q1 := figure1Queries()
	b := NewStreamBatch(8)
	_, d0, err := b.Extend(q0)
	if err != nil {
		t.Fatalf("Extend q0: %v", err)
	}
	if len(d0.QIDs) != 1 || d0.QIDs[0] != 0 || len(d0.NewInsts) != 4 || len(d0.NewEdges) != 3 || len(d0.NewSelCols) != 1 {
		t.Fatalf("q0 delta = %+v; want 4 insts, 3 edges, 1 selcol", d0)
	}

	qid, d1, err := b.Extend(q1)
	if err != nil {
		t.Fatalf("Extend q1: %v", err)
	}
	if qid != 1 || len(d1.QIDs) != 1 || d1.QIDs[0] != 1 {
		t.Fatalf("q1 qid = %d, delta queries %v; want 1, [1]", qid, d1.QIDs)
	}
	// q1 shares R, S, U and the R-S / S-U edges; only V and S-V are new,
	// and its R.x predicate joins q0's existing grouped filter.
	if len(d1.NewInsts) != 1 || b.Insts[d1.NewInsts[0]].Table != "V" {
		t.Errorf("q1 new instances = %v, want just V", d1.NewInsts)
	}
	if len(d1.NewEdges) != 1 {
		t.Errorf("q1 new edges = %v, want one (S-V)", d1.NewEdges)
	}
	if len(d1.NewSelCols) != 0 || len(d1.TouchedSels) != 1 {
		t.Errorf("q1 selcols: new=%v touched=%v; want none new, one touched", d1.NewSelCols, d1.TouchedSels)
	}
	sc := b.SelCols[d1.TouchedSels[0]]
	if len(sc.Preds) != 2 || sc.Queries.Count() != 2 {
		t.Errorf("shared filter = %+v; want both queries' predicates", sc)
	}
	for _, table := range []string{"R", "S", "U"} {
		ii, ok := b.FindInstance(table, 0)
		if !ok || b.Insts[ii].Queries.Count() != 2 {
			t.Errorf("instance %s not shared by both queries", table)
		}
	}
}

func TestRollbackExtendRestoresBatch(t *testing.T) {
	q0, q1 := figure1Queries()
	b := NewStreamBatch(8)
	if _, _, err := b.Extend(q0); err != nil {
		t.Fatal(err)
	}
	insts, edges, sels, free := len(b.Insts), len(b.Edges), len(b.SelCols), b.Free()
	preds := len(b.SelCols[0].Preds)

	_, d1, err := b.Extend(q1)
	if err != nil {
		t.Fatal(err)
	}
	b.RollbackExtend(d1)

	if len(b.Insts) != insts || len(b.Edges) != edges || len(b.SelCols) != sels {
		t.Fatalf("rollback left %d insts, %d edges, %d selcols; want %d, %d, %d",
			len(b.Insts), len(b.Edges), len(b.SelCols), insts, edges, sels)
	}
	if b.Free() != free {
		t.Errorf("Free() = %d after rollback, want %d", b.Free(), free)
	}
	if got := len(b.SelCols[0].Preds); got != preds {
		t.Errorf("shared filter has %d preds after rollback, want %d", got, preds)
	}
	for _, in := range b.Insts {
		if in.Queries.Count() != 1 || !in.Queries.Contains(0) {
			t.Errorf("instance %s queries = %v after rollback, want {0}", in.Table, in.Queries)
		}
	}

	// The batch must still accept extensions after a rollback: IDs stay
	// dense, so the same query admits cleanly and reuses the freed slot.
	qid, d, err := b.Extend(q1)
	if err != nil {
		t.Fatalf("Extend after rollback: %v", err)
	}
	if qid != 1 {
		t.Errorf("qid after rollback = %d, want the freed 1", qid)
	}
	if len(d.NewInsts) != 1 || len(d.NewEdges) != 1 {
		t.Errorf("re-extend delta = %+v; want V and S-V recreated", d)
	}
}

func TestRetireQueriesClearsSharedState(t *testing.T) {
	q0, q1 := figure1Queries()
	b := NewStreamBatch(8)
	for _, q := range []*Query{q0, q1} {
		if _, _, err := b.Extend(q); err != nil {
			t.Fatal(err)
		}
	}

	retired := bitset.New(b.QCap())
	retired.Add(0)
	changed := b.RetireQueries(retired)
	if len(changed) != 1 {
		t.Fatalf("changed sels = %v, want the shared R.x filter", changed)
	}
	sc := b.SelCols[changed[0]]
	if len(sc.Preds) != 1 || sc.Preds[0].QID != 1 {
		t.Errorf("filter preds after retire = %+v, want only q1's", sc.Preds)
	}
	for _, in := range b.Insts {
		if in.Queries.Contains(0) {
			t.Errorf("instance %s still carries retired q0", in.Table)
		}
	}
	for _, e := range b.Edges {
		if e.Queries.Contains(0) {
			t.Errorf("edge %d still carries retired q0", e.ID)
		}
	}

	// The slot frees only via ReleaseQID, and is then reused.
	if free := b.Free(); free != 6 {
		t.Errorf("Free() = %d before release, want 6", free)
	}
	b.ReleaseQID(0)
	if free := b.Free(); free != 7 {
		t.Errorf("Free() = %d after release, want 7", free)
	}
	qid, _, err := b.Extend(q0)
	if err != nil {
		t.Fatal(err)
	}
	if qid != 0 {
		t.Errorf("Extend reused qid %d, want released 0", qid)
	}
}

func TestStreamBatchCapacity(t *testing.T) {
	b := NewStreamBatch(2)
	mk := func(tag string) *Query {
		return &Query{Tag: tag, Rels: []RelRef{{Table: "R"}}}
	}
	for i := 0; i < 2; i++ {
		if _, _, err := b.Extend(mk("q")); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := b.Extend(mk("overflow")); err == nil {
		t.Fatal("Extend beyond capacity succeeded, want error")
	}
	if b.QCap() != 2 {
		t.Errorf("QCap = %d after failed Extend, want 2", b.QCap())
	}
}

// TestWholeDeltaCoversCompiledBatch pins the delta the executor compiles a
// batch from: every query, instance, edge and grouped filter, in ID order,
// with nothing touched — the same delta the per-query Extends add up to.
func TestWholeDeltaCoversCompiledBatch(t *testing.T) {
	q0, q1 := figure1Queries()
	b := NewStreamBatch(8)
	var sum ExtendDelta
	for _, q := range []*Query{q0, q1} {
		_, d, err := b.Extend(q)
		if err != nil {
			t.Fatal(err)
		}
		sum.QIDs = append(sum.QIDs, d.QIDs...)
		sum.NewInsts = append(sum.NewInsts, d.NewInsts...)
		sum.NewEdges = append(sum.NewEdges, d.NewEdges...)
		sum.NewSelCols = append(sum.NewSelCols, d.NewSelCols...)
	}
	w := b.WholeDelta()
	if fmt.Sprint(w) != fmt.Sprint(sum) {
		t.Errorf("WholeDelta = %+v, want the Extends' sum %+v", w, sum)
	}
	if len(w.QIDs) != 2 || len(w.NewInsts) != len(b.Insts) || len(w.NewEdges) != len(b.Edges) ||
		len(w.NewSelCols) != len(b.SelCols) || len(w.TouchedSels) != 0 {
		t.Errorf("WholeDelta = %+v; want every query and operator new, none touched", w)
	}
}
