package roulette

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/roulette-db/roulette/internal/value"
)

// typedFixture builds a two-table engine with string join keys and nullable
// columns:
//
//	fact(cat string?, v int64?, region string?)
//	dim(cat string, w int64)
//
// fact.cat and dim.cat share a dictionary via ShareDictionary, so the
// string join executes over directly comparable codes.
func typedFixture(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine()
	e.MustCreateTable("fact",
		NullableStrCol("cat",
			[]string{"a", "b", "a", "c", "", "b", "d", "a"},
			[]bool{true, true, true, true, false, true, true, true}),
		NullableCol("v",
			[]int64{10, 0, 30, 40, 50, 60, 70, 0},
			[]bool{true, false, true, true, true, true, true, false}),
		NullableStrCol("region",
			[]string{"east", "west", "", "east", "west", "", "east", ""},
			[]bool{true, true, false, true, true, false, true, false}),
	)
	e.MustCreateTable("dim",
		StrCol("cat", "a", "b", "c", "e"),
		Col("w", 1, 2, 3, 4),
	)
	if err := e.ShareDictionary("fact.cat", "dim.cat"); err != nil {
		t.Fatal(err)
	}
	return e
}

// typedWorkload covers string equality, IN-lists, IS [NOT] NULL, same-column
// conjunctions, NULL join keys and string GROUP BY. Expected values are
// derived by hand from the fixture above.
func typedWorkload() []*Query {
	join := func(tag string) *Query {
		return NewQuery(tag).From("fact").From("dim").Join("fact", "cat", "dim", "cat")
	}
	return []*Query{
		// fact.cat matches: a→rows 0,2,7; b→1,5; c→3; NULL and "d" join nothing.
		join("join").CountStar(),                                       // 6
		join("eq").EqString("dim", "cat", "a"),                         // 3
		NewQuery("in").From("fact").InStrings("fact", "cat", "a", "d"), // rows 0,2,6,7 = 4
		NewQuery("vnull").From("fact").IsNull("fact", "v"),             // rows 1,7 = 2
		NewQuery("rnotnull").From("fact").IsNotNull("fact", "region"),  // rows 0,1,3,4,6 = 5
		// Conjunction of two string predicates on the same column.
		NewQuery("conj").From("fact").
			EqString("fact", "cat", "a").InStrings("fact", "cat", "a", "b"), // rows 0,2,7 = 3
		NewQuery("empty").From("fact").
			EqString("fact", "cat", "a").EqString("fact", "cat", "b"), // 0
		// SUM skips NULL v; groups keyed by shared-dictionary codes.
		join("sum").Sum("fact", "v").GroupBy("dim", "cat").OrderByKey(), // a:40 b:60 c:40
		// NULL region keys form one group, ordered before the labels.
		NewQuery("nullgroup").From("fact").CountStar().
			GroupBy("fact", "region").OrderByKey(), // NULL:3 east:3 west:2
	}
}

func TestTypedBatchMatchesHandOracle(t *testing.T) {
	e := typedFixture(t)
	res, err := e.ExecuteBatch(typedWorkload(), &Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int64{
		"join": 6, "eq": 3, "in": 4, "vnull": 2, "rnotnull": 5,
		"conj": 3, "empty": 0, "sum": 6, "nullgroup": 8,
	}
	byTag := map[string]QueryResult{}
	for _, qr := range res.Queries {
		byTag[qr.Tag] = qr
		if qr.Count != counts[qr.Tag] {
			t.Errorf("query %s: count = %d, want %d", qr.Tag, qr.Count, counts[qr.Tag])
		}
	}
	wantSum := []Group{}
	for _, g := range []struct {
		label string
		v     int64
	}{{"a", 40}, {"b", 60}, {"c", 40}} {
		wantSum = append(wantSum, Group{Label: g.label, Value: g.v})
	}
	gotSum := byTag["sum"].Groups
	if len(gotSum) != len(wantSum) {
		t.Fatalf("sum groups = %+v", gotSum)
	}
	for i := range wantSum {
		if gotSum[i].Label != wantSum[i].Label || gotSum[i].Value != wantSum[i].Value {
			t.Errorf("sum group %d = %+v, want %+v", i, gotSum[i], wantSum[i])
		}
	}
	gotNG := byTag["nullgroup"].Groups
	if len(gotNG) != 3 {
		t.Fatalf("nullgroup groups = %+v", gotNG)
	}
	if gotNG[0].Key != NullValue || gotNG[0].Value != 3 {
		t.Errorf("NULL group first, got %+v", gotNG[0])
	}
	if gotNG[1].Label != "east" || gotNG[1].Value != 3 || gotNG[2].Label != "west" || gotNG[2].Value != 2 {
		t.Errorf("labelled groups = %+v", gotNG[1:])
	}
}

// TestTypedStreamMatchesBatch runs the same typed workload through a live
// stream and requires results identical to one-shot batch execution,
// including decoded labels.
func TestTypedStreamMatchesBatch(t *testing.T) {
	e := typedFixture(t)
	want := oracleCounts(t, e, typedWorkload())

	st, err := e.OpenStream(context.Background(), &StreamOptions{
		Options: Options{VectorSize: 4, Seed: 11}, // several vectors even on 8 rows
	})
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for _, q := range typedWorkload() {
		tk, err := st.Submit(q)
		if err != nil {
			t.Fatalf("submit %s: %v", q.Tag(), err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		qr, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, qr, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// typedRandFixture generates a randomized typed workload big enough to span
// many vectors, plus brute-force oracle predicates evaluated over the raw
// Go slices (independent of the engine's storage layer).
type typedRandFixture struct {
	e *Engine

	fcat  []string
	fnull []bool // fcat NULL mask
	fv    []int64
	vnull []bool // fv NULL mask
	dcat  []string
	dw    []int64
}

func newTypedRandFixture(t *testing.T, rng *rand.Rand, nf int) *typedRandFixture {
	t.Helper()
	cats := []string{
		"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
		"iota", "kappa", "lambda", "mu", "nu", "xi", "omicron", "pi",
	}
	f := &typedRandFixture{}
	for i := 0; i < nf; i++ {
		// Squaring skews the category draw toward low indexes.
		k := rng.Intn(len(cats))
		k = k * (rng.Intn(len(cats)) + 1) / len(cats)
		f.fcat = append(f.fcat, cats[k])
		f.fnull = append(f.fnull, rng.Intn(10) != 0) // ~10% NULL
		f.fv = append(f.fv, int64(rng.Intn(1000)))
		f.vnull = append(f.vnull, rng.Intn(8) != 0)
	}
	// dim covers only a prefix of the categories plus strings absent from
	// fact, so joins drop some categories and IN-lists can miss.
	for i := 0; i < 12; i++ {
		f.dcat = append(f.dcat, cats[i])
	}
	f.dcat = append(f.dcat, "rho", "sigma")
	for range f.dcat {
		f.dw = append(f.dw, int64(rng.Intn(100)))
	}

	f.e = NewEngine()
	f.e.MustCreateTable("fact",
		NullableStrCol("cat", f.fcat, f.fnull),
		NullableCol("v", f.fv, f.vnull),
	)
	f.e.MustCreateTable("dim", StrColSlice("cat", f.dcat), ColSlice("w", f.dw))
	if err := f.e.ShareDictionary("fact.cat", "dim.cat"); err != nil {
		t.Fatal(err)
	}
	return f
}

// oracle brute-forces a query given row predicates; join selects fact ⋈ dim
// on cat with NULL keys never matching.
func (f *typedRandFixture) oracle(join bool, fpred func(i int) bool, dpred func(j int) bool) int64 {
	var count int64
	for i := range f.fcat {
		if !fpred(i) {
			continue
		}
		if !join {
			count++
			continue
		}
		if !f.fnull[i] {
			continue // NULL join key
		}
		for j := range f.dcat {
			if f.dcat[j] == f.fcat[i] && dpred(j) {
				count++
			}
		}
	}
	return count
}

func TestTypedRandomizedMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := newTypedRandFixture(t, rng, 3000)
	all := func(int) bool { return true }
	vOK := func(i int) bool { return f.vnull[i] }
	catOK := func(i int) bool { return f.fnull[i] }

	type tq struct {
		q    *Query
		want int64
	}
	join := func(tag string) *Query {
		return NewQuery(tag).From("fact").From("dim").Join("fact", "cat", "dim", "cat")
	}
	cases := []tq{
		{join("t0").CountStar(), f.oracle(true, all, all)},
		{join("t1").Between("dim", "w", 20, 70),
			f.oracle(true, all, func(j int) bool { return f.dw[j] >= 20 && f.dw[j] <= 70 })},
		{join("t2").EqString("fact", "cat", "gamma"),
			f.oracle(true, func(i int) bool { return catOK(i) && f.fcat[i] == "gamma" }, all)},
		{NewQuery("t3").From("fact").InStrings("fact", "cat", "alpha", "mu", "sigma"),
			f.oracle(false, func(i int) bool {
				return catOK(i) && (f.fcat[i] == "alpha" || f.fcat[i] == "mu" || f.fcat[i] == "sigma")
			}, nil)},
		{join("t4").IsNull("fact", "v"),
			f.oracle(true, func(i int) bool { return !f.vnull[i] }, all)},
		{NewQuery("t5").From("fact").IsNotNull("fact", "v").Between("fact", "v", 100, 600),
			f.oracle(false, func(i int) bool { return vOK(i) && f.fv[i] >= 100 && f.fv[i] <= 600 }, nil)},
		{NewQuery("t6").From("fact").IsNull("fact", "cat"),
			f.oracle(false, func(i int) bool { return !f.fnull[i] }, nil)},
		{join("t7").EqString("dim", "cat", "beta").Between("fact", "v", 0, 499),
			f.oracle(true,
				func(i int) bool { return vOK(i) && f.fv[i] < 500 },
				func(j int) bool { return f.dcat[j] == "beta" })},
	}

	var qs []*Query
	for _, c := range cases {
		qs = append(qs, c.q)
	}
	res, err := f.e.ExecuteBatch(qs, &Options{VectorSize: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		if got := res.Queries[i].Count; got != c.want {
			t.Errorf("query %s: count = %d, oracle = %d", res.Queries[i].Tag, got, c.want)
		}
	}

	// The same workload through a stream, two workers, must agree.
	st, err := f.e.OpenStream(context.Background(), &StreamOptions{
		Options: Options{Workers: 2, VectorSize: 128, Seed: 17},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		tk, err := st.Submit(c.q)
		if err != nil {
			t.Fatalf("submit %s: %v", c.q.Tag(), err)
		}
		qr, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if qr.Count != c.want {
			t.Errorf("stream query %s: count = %d, oracle = %d", qr.Tag, qr.Count, c.want)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTypedErrors(t *testing.T) {
	e := NewEngine()
	e.MustCreateTable("s", StrCol("name", "x", "y"), Col("n", 1, 2))
	e.MustCreateTable("u", StrCol("name", "x", "z"))
	e.MustCreateTable("i", Col("k", 1, 2))

	cases := []struct {
		name string
		q    *Query
	}{
		{"range on string column", NewQuery("a").From("s").Between("s", "name", 0, 5)},
		{"strings on int column", NewQuery("b").From("s").EqString("s", "n", "x")},
		{"string join without shared dict", NewQuery("c").From("s").From("u").Join("s", "name", "u", "name")},
		{"string-int join", NewQuery("d").From("s").From("i").Join("s", "name", "i", "k")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := e.ExecuteBatch([]*Query{c.q}, nil)
			if err == nil {
				t.Fatal("no error")
			}
			if !errors.Is(err, value.ErrTypeMismatch) {
				t.Fatalf("error %q does not wrap value.ErrTypeMismatch", err)
			}
		})
	}

	// After unification the join is legal.
	if err := e.ShareDictionary("s.name", "u.name"); err != nil {
		t.Fatal(err)
	}
	res, err := e.ExecuteBatch([]*Query{
		NewQuery("ok").From("s").From("u").Join("s", "name", "u", "name"),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries[0].Count != 1 { // only "x" appears in both
		t.Errorf("post-unification join count = %d, want 1", res.Queries[0].Count)
	}
}

func TestCreateTableTypedValidation(t *testing.T) {
	e := NewEngine()
	if err := e.CreateTable("bad1", Column{Name: "c", Data: []int64{1}, Strs: []string{"a"}}); err == nil {
		t.Error("both Data and Strs should be rejected")
	}
	if err := e.CreateTable("bad2", NullableCol("c", []int64{1, 2}, []bool{true})); err == nil {
		t.Error("short Valid mask should be rejected")
	}
	if err := e.CreateTable("bad3", NullableCol("c", []int64{NullValue}, []bool{true})); err == nil {
		t.Error("NullValue in valid cell of nullable column should be rejected")
	}
	// NullValue under a false validity bit is fine (it is the NULL encoding).
	if err := e.CreateTable("ok", NullableCol("c", []int64{NullValue}, []bool{false})); err != nil {
		t.Errorf("NULL row rejected: %v", err)
	}
}

// TestFilterKeepsMaxInt64Rows: NullValue is math.MinInt64, so
// math.MaxInt64 is ordinary data, and every filter whose range reaches it
// must keep its row, in a batch and in a stream.
func TestFilterKeepsMaxInt64Rows(t *testing.T) {
	v := []int64{1, 7, math.MaxInt64, 3, 0}
	valid := []bool{true, true, true, true, false}
	e := NewEngine()
	e.MustCreateTable("fact", NullableCol("v", v, valid))
	cases := []struct {
		q    *Query
		keep func(x int64) bool
	}{
		{NewQuery("ge5").From("fact").Ge("fact", "v", 5), func(x int64) bool { return x >= 5 }},
		{NewQuery("notnull").From("fact").IsNotNull("fact", "v"), func(int64) bool { return true }},
		{NewQuery("max").From("fact").Between("fact", "v", math.MaxInt64, math.MaxInt64), func(x int64) bool { return x == math.MaxInt64 }},
		{NewQuery("below").From("fact").Le("fact", "v", math.MaxInt64-1), func(x int64) bool { return x < math.MaxInt64 }},
		{NewQuery("both").From("fact").Ge("fact", "v", 2).IsNotNull("fact", "v"), func(x int64) bool { return x >= 2 }},
	}
	var qs []*Query
	want := map[string]int64{}
	for _, c := range cases {
		qs = append(qs, c.q)
		for i, x := range v {
			if valid[i] && c.keep(x) {
				want[c.q.Tag()]++
			}
		}
	}
	res, err := e.ExecuteBatch(qs, &Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, qr := range res.Queries {
		if qr.Count != want[qr.Tag] {
			t.Errorf("batch query %s: count = %d, oracle = %d", qr.Tag, qr.Count, want[qr.Tag])
		}
	}
	st, err := e.OpenStream(context.Background(), &StreamOptions{Options: Options{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		tk, err := st.Submit(q)
		if err != nil {
			t.Fatalf("submit %s: %v", q.Tag(), err)
		}
		qr, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if qr.Count != want[qr.Tag] {
			t.Errorf("stream query %s: count = %d, oracle = %d", qr.Tag, qr.Count, want[qr.Tag])
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCreateTableRejectsNullSentinel: every engine reads NullValue as NULL
// whatever the column's nullability, so a plain int64 column holding it
// would silently lose the row from every filter and join.
func TestCreateTableRejectsNullSentinel(t *testing.T) {
	e := NewEngine()
	if err := e.CreateTable("t", Col("x", math.MinInt64, 5)); err == nil {
		t.Error("math.MinInt64 in a non-nullable int64 column should be rejected")
	}
	if e.Database().Table("t") != nil {
		t.Error("rejected table was registered")
	}
}

func TestShareDictionaryTransitive(t *testing.T) {
	e := NewEngine()
	e.MustCreateTable("a", StrCol("s", "p", "q"))
	e.MustCreateTable("b", StrCol("s", "q", "r"))
	e.MustCreateTable("c", StrCol("s", "r", "p"))
	// Unify a+b first, then b+c: c must land in the same dictionary and all
	// previously-remapped columns stay consistent.
	if err := e.ShareDictionary("a.s", "b.s"); err != nil {
		t.Fatal(err)
	}
	if err := e.ShareDictionary("b.s", "c.s"); err != nil {
		t.Fatal(err)
	}
	qs := []*Query{
		NewQuery("ab").From("a").From("b").Join("a", "s", "b", "s"),
		NewQuery("ac").From("a").From("c").Join("a", "s", "c", "s"),
		NewQuery("bc").From("b").From("c").Join("b", "s", "c", "s"),
	}
	res, err := e.ExecuteBatch(qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{1, 1, 1} { // exactly one shared string per pair
		if res.Queries[i].Count != want {
			t.Errorf("query %s: count = %d, want %d", res.Queries[i].Tag, res.Queries[i].Count, want)
		}
	}

	// ShareDictionary argument validation.
	for _, refs := range [][]string{
		{"a.s"},
		{"a.s", "nope.s"},
		{"a.s", "a.nope"},
		{"a.s", "bad"},
	} {
		if err := e.ShareDictionary(refs...); err == nil {
			t.Errorf("ShareDictionary(%v): no error", refs)
		}
	}
}
