package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/catalog"
	"github.com/roulette-db/roulette/internal/cost"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
	"github.com/roulette-db/roulette/internal/value"
)

// filterFixture builds a grouped filter over a column of values 0..999 with
// random per-query ranges.
func filterFixture(rng *rand.Rand, nQueries, nPreds int) (*query.SelCol, []int64) {
	col := make([]int64, 500)
	for i := range col {
		col[i] = int64(rng.Intn(1000))
	}
	sc := &query.SelCol{Inst: 0, Col: "c", Queries: bitset.New(nQueries)}
	for p := 0; p < nPreds; p++ {
		qid := rng.Intn(nQueries)
		lo := int64(rng.Intn(900))
		hi := lo + int64(rng.Intn(200))
		sc.Preds = append(sc.Preds, query.Pred{QID: qid, Lo: lo, Hi: hi})
		sc.Queries.Add(qid)
	}
	return sc, col
}

// TestRebuiltFilterMatchesFreshBuild checks the column-range cache: a
// stream context admits queries filtering r.v (a range, IS NOT NULL, IS
// NULL, open-ended bounds; the column holds a NULL) and s.v, then retires
// two and rebuilds the filters they touched. After each change every
// grouped filter must equal one built from scratch over its column, and
// each filtered column's range must have been scanned once.
func TestRebuiltFilterMatchesFreshBuild(t *testing.T) {
	db := twoTableDB()
	db.Table("r").Col("v")[3] = value.NullCode
	b := query.NewStreamBatch(8)
	ctx, err := NewContext(b, db, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		for si := range b.SelCols {
			sc := &b.SelCols[si]
			fresh := NewGroupedFilter(b.QCap(), sc, ctx.Tables[sc.Inst].Col(sc.Col), nil)
			if got := ctx.Filters[si]; !reflect.DeepEqual(got, fresh) {
				t.Fatalf("%s: filter %d (%s) has bounds %v, masks %v, out %v, null %v; a fresh build %v, %v, %v, %v", when, si, sc.Col,
					got.bounds, got.masks, got.outMask, got.nullMask, fresh.bounds, fresh.masks, fresh.outMask, fresh.nullMask)
			}
		}
	}
	for _, f := range []query.Filter{
		{Alias: "r", Col: "v", Lo: 2, Hi: 7},
		{Alias: "r", Col: "v", Kind: query.KindIsNotNull},
		{Alias: "r", Col: "v", Lo: math.MinInt64, Hi: 4},
		{Alias: "r", Col: "v", Kind: query.KindIsNull},
		{Alias: "r", Col: "v", Lo: 6, Hi: math.MaxInt64},
		{Alias: "s", Col: "v", Lo: 10, Hi: 20},
	} {
		q := &query.Query{
			Rels:    []query.RelRef{{Table: "r"}, {Table: "s"}},
			Joins:   []query.Join{{LeftAlias: "r", LeftCol: "k", RightAlias: "s", RightCol: "k"}},
			Filters: []query.Filter{f},
		}
		_, d, err := b.Extend(q)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.ApplyExtend(d); err != nil {
			t.Fatal(err)
		}
		check("after a submit")
	}
	ctx.RebuildFilters(b.RetireQueries(bitset.FromIDs(b.QCap(), 0, 2)))
	check("after a retirement")
	if len(ctx.colRanges) != 2 {
		t.Fatalf("%d column ranges cached, want one each for r.v and s.v", len(ctx.colRanges))
	}
}

func TestGroupedFilterSemantics(t *testing.T) {
	// Three queries: q0 wants [10,20], q1 wants [15,30], q2 no predicate.
	sc := &query.SelCol{
		Inst: 0, Col: "c",
		Preds:   []query.Pred{{QID: 0, Lo: 10, Hi: 20}, {QID: 1, Lo: 15, Hi: 30}},
		Queries: bitset.FromIDs(3, 0, 1),
	}
	col := []int64{5, 12, 17, 25, 40}
	gf := NewGroupedFilter(3, sc, col, nil)

	cases := []struct {
		v    int64
		want []int
	}{
		{5, []int{2}},        // no predicate satisfied; q2 passes through
		{12, []int{0, 2}},    // only q0
		{17, []int{0, 1, 2}}, // both
		{25, []int{1, 2}},    // only q1
		{40, []int{2}},
	}
	for _, c := range cases {
		m := gf.maskFor(c.v)
		got := m.IDs()
		if len(got) != len(c.want) {
			t.Errorf("maskFor(%d) = %v, want %v", c.v, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("maskFor(%d) = %v, want %v", c.v, got, c.want)
			}
		}
	}
}

func TestGroupedFilterApplyCompact(t *testing.T) {
	sc := &query.SelCol{
		Inst: 0, Col: "c",
		Preds:   []query.Pred{{QID: 0, Lo: 0, Hi: 9}},
		Queries: bitset.FromIDs(1, 0),
	}
	col := []int64{5, 50, 7}
	gf := NewGroupedFilter(1, sc, col, nil)
	vids := []int32{0, 1, 2}
	qsets := []uint64{1, 1, 1}
	n := gf.Apply(true, vids, qsets, 1)
	if vids = vids[:n]; len(vids) != 2 || vids[0] != 0 || vids[1] != 2 {
		t.Errorf("surviving vids = %v, want [0 2]", vids)
	}
	if !reflect.DeepEqual(qsets[:n], []uint64{1, 1}) {
		t.Errorf("surviving qsets = %v, want [1 1]", qsets[:n])
	}

	// Every path and width compacts as masking then compact would: random
	// filters over one, two and three words, grouped and naive.
	rng := rand.New(rand.NewSource(3))
	for _, nQ := range []int{40, 100, 150} {
		sc, col := filterFixture(rng, nQ, 30)
		gf := NewGroupedFilter(nQ, sc, col, nil)
		qw := bitset.WordsFor(nQ)
		vids := make([]int32, 300)
		qsets := make([]uint64, len(vids)*qw)
		for i := range vids {
			vids[i] = int32(rng.Intn(len(col)))
			for w := 0; w < qw; w++ {
				qsets[i*qw+w] = rng.Uint64() & rng.Uint64()
			}
		}
		for _, grouped := range []bool{true, false} {
			wantV := append([]int32(nil), vids...)
			wantQ := append([]uint64(nil), qsets...)
			for i, vid := range wantV {
				bitset.Set(wantQ[i*qw : (i+1)*qw]).AndWith(gf.maskFor(col[vid]))
			}
			wantV, wantQ = compact(wantV, wantQ, qw)
			gotV := append([]int32(nil), vids...)
			gotQ := append([]uint64(nil), qsets...)
			n := gf.Apply(grouped, gotV, gotQ, qw)
			if !reflect.DeepEqual(gotV[:n], wantV) || !reflect.DeepEqual(gotQ[:n*qw], wantQ) {
				t.Fatalf("%d queries, grouped %t: Apply kept %d tuples, masking then compacting %d, or their words differ", nQ, grouped, n, len(wantV))
			}
		}
	}
}

func TestCompactMultiWord(t *testing.T) {
	// 3 tuples over 2-word query sets; middle one empty.
	vids := []int32{10, 11, 12}
	qsets := []uint64{1, 0 /**/, 0, 0 /**/, 0, 1 << 5}
	vids, qsets = compact(vids, qsets, 2)
	if len(vids) != 2 || vids[0] != 10 || vids[1] != 12 {
		t.Fatalf("vids = %v", vids)
	}
	if qsets[0] != 1 || qsets[3] != 1<<5 {
		t.Fatalf("qsets = %v", qsets)
	}
}

func TestSourceCountOnly(t *testing.T) {
	s := NewSource(nil, true) // no required insts: count-only regardless
	s.Append(nil, 5)
	s.Append(nil, 3)
	if s.Count() != 8 {
		t.Errorf("count = %d", s.Count())
	}
	rows, w := s.Rows()
	if len(rows) != 0 || w != 0 {
		t.Errorf("count-only source stored rows")
	}
}

func TestSourceCollectRows(t *testing.T) {
	s := NewSource([]query.InstID{0, 2}, true)
	s.Append([]int32{1, 2, 3, 4}, 2)
	rows, w := s.Rows()
	if w != 2 || len(rows) != 4 || rows[2] != 3 {
		t.Errorf("rows = %v width %d", rows, w)
	}
	s.Reset()
	if s.Count() != 0 {
		t.Error("Reset did not clear count")
	}
}

func TestStatsBreakdown(t *testing.T) {
	var st Stats
	st.FilterNs.Store(10)
	st.BuildNs.Store(20)
	st.ProbeNs.Store(50)
	st.RouteNs.Store(20)
	f, b, p, r := st.Breakdown()
	if f != 0.1 || b != 0.2 || p != 0.5 || r != 0.2 {
		t.Errorf("breakdown = %v %v %v %v", f, b, p, r)
	}
	var empty Stats
	if f, _, _, _ := empty.Breakdown(); f != 0 {
		t.Error("empty breakdown should be zeros")
	}
}

func TestNewContextValidation(t *testing.T) {
	rel := catalog.NewRelation("r", "a")
	sch := catalog.NewSchema(rel)
	db := storage.NewDatabase(sch)
	db.Put(storage.NewTable(rel, 10))

	// Unknown table.
	q := &query.Query{Rels: []query.RelRef{{Table: "missing"}}}
	b, err := query.Compile([]*query.Query{q})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewContext(b, db, DefaultOptions(), nil); err == nil {
		t.Error("missing table accepted")
	}

	// Unknown join column.
	q2 := &query.Query{
		Rels:  []query.RelRef{{Table: "r", Alias: "x"}, {Table: "r", Alias: "y"}},
		Joins: []query.Join{{LeftAlias: "x", LeftCol: "nope", RightAlias: "y", RightCol: "a"}},
	}
	b2, err := query.Compile([]*query.Query{q2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewContext(b2, db, DefaultOptions(), nil); err == nil {
		t.Error("missing join column accepted")
	}

	// Unknown filter column.
	q3 := &query.Query{
		Rels:    []query.RelRef{{Table: "r"}},
		Filters: []query.Filter{{Alias: "r", Col: "nope", Lo: 0, Hi: 1}},
	}
	b3, err := query.Compile([]*query.Query{q3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewContext(b3, db, DefaultOptions(), nil); err == nil {
		t.Error("missing filter column accepted")
	}
}

// TestCompiledOpLayout pins the selection-op layout NewContext gives a
// compiled batch, which Q-table keys and persisted policies depend on:
// grouped filters take IDs 0..S-1 in SelCol order, then every edge its two
// prune ops (A's side first); bits count up per instance in that same
// order, and each STeM indexes its join columns in edge order.
func TestCompiledOpLayout(t *testing.T) {
	fact := catalog.NewRelation("fact", "a", "b", "v", "w")
	d1 := catalog.NewRelation("d1", "a", "x")
	d2 := catalog.NewRelation("d2", "b", "y")
	db := storage.NewDatabase(catalog.NewSchema(fact, d1, d2))
	for _, r := range []*catalog.Relation{fact, d1, d2} {
		db.Put(storage.NewTable(r, 8))
	}
	q0 := &query.Query{
		Rels:    []query.RelRef{{Table: "fact"}, {Table: "d1"}},
		Joins:   []query.Join{{LeftAlias: "fact", LeftCol: "a", RightAlias: "d1", RightCol: "a"}},
		Filters: []query.Filter{{Alias: "fact", Col: "v", Lo: 0, Hi: 1}, {Alias: "d1", Col: "x", Lo: 0, Hi: 1}},
	}
	q1 := &query.Query{
		Rels: []query.RelRef{{Table: "fact"}, {Table: "d1"}, {Table: "d2"}},
		Joins: []query.Join{
			{LeftAlias: "fact", LeftCol: "a", RightAlias: "d1", RightCol: "a"},
			{LeftAlias: "d2", LeftCol: "b", RightAlias: "fact", RightCol: "b"},
		},
		Filters: []query.Filter{
			{Alias: "fact", Col: "w", Lo: 0, Hi: 1},
			{Alias: "d2", Col: "y", Lo: 0, Hi: 1},
			{Alias: "fact", Col: "v", Lo: 2, Hi: 3},
		},
	}
	b, err := query.Compile([]*query.Query{q0, q1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(b, db, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Instances: fact 0, d1 1, d2 2. Edges: fact.a=d1.a 0, fact.b=d2.b 1.
	want := []SelOpDesc{
		{ID: 0, Inst: 0, Bit: 0, SelCol: 0, EdgeID: -1, Col: "v"},
		{ID: 1, Inst: 1, Bit: 0, SelCol: 1, EdgeID: -1, Col: "x"},
		{ID: 2, Inst: 0, Bit: 1, SelCol: 2, EdgeID: -1, Col: "w"},
		{ID: 3, Inst: 2, Bit: 0, SelCol: 3, EdgeID: -1, Col: "y"},
		{ID: 4, Inst: 0, Bit: 2, Prune: true, SelCol: -1, EdgeID: 0, Col: "a"},
		{ID: 5, Inst: 1, Bit: 1, Prune: true, SelCol: -1, EdgeID: 0, Col: "a"},
		{ID: 6, Inst: 0, Bit: 3, Prune: true, SelCol: -1, EdgeID: 1, Col: "b"},
		{ID: 7, Inst: 2, Bit: 1, Prune: true, SelCol: -1, EdgeID: 1, Col: "b"},
	}
	got := ctx.SelOpDescs()
	if len(got) != len(want) || ctx.NumSelOps() != len(want) {
		t.Fatalf("%d selection ops (NumSelOps %d), want %d: %+v", len(got), ctx.NumSelOps(), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	wantKeys := [][]string{{"a", "b"}, {"a"}, {"b"}}
	for inst, cols := range wantKeys {
		if fmt.Sprint(ctx.stemKeyCols[inst]) != fmt.Sprint(cols) {
			t.Errorf("instance %d STeM key columns = %v, want %v", inst, ctx.stemKeyCols[inst], cols)
		}
	}
}

// TestOverBudgetErrorIsStable checks the 64-op budget error names the same
// instance every time when two instances exceed it.
func TestOverBudgetErrorIsStable(t *testing.T) {
	cols := make([]string, 65)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	r, s := catalog.NewRelation("r", cols...), catalog.NewRelation("s", cols...)
	db := storage.NewDatabase(catalog.NewSchema(r, s))
	db.Put(storage.NewTable(r, 4))
	db.Put(storage.NewTable(s, 4))
	q := &query.Query{
		Rels:  []query.RelRef{{Table: "r"}, {Table: "s"}},
		Joins: []query.Join{{LeftAlias: "r", LeftCol: "c0", RightAlias: "s", RightCol: "c0"}},
	}
	for _, c := range cols {
		q.Filters = append(q.Filters,
			query.Filter{Alias: "r", Col: c, Lo: 0, Hi: 1},
			query.Filter{Alias: "s", Col: c, Lo: 0, Hi: 1})
	}
	const want = "exec: instance r has 66 selection ops (max 64)"
	for run := 0; run < 20; run++ {
		b, err := query.Compile([]*query.Query{q})
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewContext(b, db, DefaultOptions(), nil)
		if err == nil || err.Error() != want {
			t.Fatalf("run %d: error %v, want %q", run, err, want)
		}
	}
}

func TestSelOpsForIncludesEligiblePruneOps(t *testing.T) {
	rel := catalog.NewRelation("r", "k")
	rel2 := catalog.NewRelation("s", "k")
	sch := catalog.NewSchema(rel, rel2)
	db := storage.NewDatabase(sch)
	db.Put(storage.NewTable(rel, 8))
	db.Put(storage.NewTable(rel2, 8))
	q := &query.Query{
		Rels:  []query.RelRef{{Table: "r"}, {Table: "s"}},
		Joins: []query.Join{{LeftAlias: "r", LeftCol: "k", RightAlias: "s", RightCol: "k"}},
	}
	b, err := query.Compile([]*query.Query{q})
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(b, db, DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rInst, _ := b.InstOfAlias(0, "r")

	// No prunable set: only grouped filters (none here).
	ops := ctx.SelOpsFor(rInst, func(int, query.InstID) bitset.Set { return nil })
	if len(ops) != 0 {
		t.Errorf("ops = %v, want none", ops)
	}
	// s fully scanned for the query: prune op appears.
	elig := bitset.FromIDs(1, 0)
	ops = ctx.SelOpsFor(rInst, func(e int, other query.InstID) bitset.Set { return elig })
	if len(ops) != 1 {
		t.Fatalf("ops = %v, want one prune op", ops)
	}
	if ops[0].ID < len(b.SelCols) {
		t.Error("prune op ID overlaps grouped filter space")
	}
}

// TestCalibrateModelProducesSaneConstants checks the fitted model, not the
// paper's defaults: selection is fitted to GroupedFilter.Apply, routing to
// compact, and join to stem.ProbeVecRange probing whole key vectors with
// warm buffers over tables read as they stand — the kernels episodes run.
// κ and λ trade off against each other under timing noise (either may come out
// slightly negative), so the assertions are on their sum, the cost of a
// tuple that goes in and comes out.
func TestCalibrateModelProducesSaneConstants(t *testing.T) {
	m := CalibrateModel(1)
	for _, c := range []struct {
		class cost.Class
		name  string
	}{
		{cost.Selection, "selection"},
		{cost.Join, "join"},
		{cost.RoutingSelection, "routing"},
	} {
		k, l := m.Kappa[c.class], m.Lambda[c.class]
		// Costs must be positive per input tuple overall: a vector of n in
		// and n out must cost a positive number of nanoseconds.
		if k+l <= 0 {
			t.Errorf("%s: κ=%v λ=%v (non-positive per-tuple cost)", c.name, k, l)
		}
		if k > 10000 || l > 10000 {
			t.Errorf("%s: implausible constants κ=%v λ=%v", c.name, k, l)
		}
	}
	// Joins must be costlier per tuple than routing selections (the paper's
	// constants preserve this ordering; selection pushdown depends on it).
	if m.Kappa[cost.Join]+m.Lambda[cost.Join] <= m.Kappa[cost.RoutingSelection]+m.Lambda[cost.RoutingSelection] {
		t.Errorf("join per-tuple cost (%v/%v) not above routing (%v/%v)",
			m.Kappa[cost.Join], m.Lambda[cost.Join],
			m.Kappa[cost.RoutingSelection], m.Lambda[cost.RoutingSelection])
	}
}
