package roulette

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// fixture builds a small engine: fact(fk, v) ⋈ dim(k, g).
func fixture(t *testing.T) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	const nf, nd = 500, 25
	fk := make([]int64, nf)
	v := make([]int64, nf)
	for i := range fk {
		fk[i] = int64(rng.Intn(nd))
		v[i] = int64(rng.Intn(100))
	}
	k := make([]int64, nd)
	g := make([]int64, nd)
	for i := range k {
		k[i] = int64(i)
		g[i] = int64(i % 4)
	}
	e := NewEngine()
	e.MustCreateTable("fact", ColSlice("fk", fk), ColSlice("v", v))
	e.MustCreateTable("dim", ColSlice("k", k), ColSlice("g", g))
	return e
}

func TestExecuteBatchCount(t *testing.T) {
	e := fixture(t)
	q := NewQuery("all").From("fact").From("dim").Join("fact", "fk", "dim", "k").CountStar()
	res, err := e.ExecuteBatch([]*Query{q}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries[0].Count != 500 || res.Queries[0].Value() != 500 {
		t.Errorf("count = %d / %d, want 500", res.Queries[0].Count, res.Queries[0].Value())
	}
	if res.Throughput() <= 0 || res.Episodes == 0 {
		t.Error("missing execution stats")
	}
}

func TestExecuteBatchFiltersAndComparators(t *testing.T) {
	e := fixture(t)
	mk := func(tag string, f func(*Query) *Query) *Query {
		return f(NewQuery(tag).From("fact").From("dim").Join("fact", "fk", "dim", "k"))
	}
	qs := []*Query{
		mk("between", func(q *Query) *Query { return q.Between("fact", "v", 10, 19) }),
		mk("eq", func(q *Query) *Query { return q.Eq("dim", "g", 2) }),
		mk("lt", func(q *Query) *Query { return q.Lt("fact", "v", 50) }),
		mk("ge", func(q *Query) *Query { return q.Ge("fact", "v", 50) }),
	}
	res, err := e.ExecuteBatch(qs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// lt + ge partition the fact rows.
	if res.Queries[2].Count+res.Queries[3].Count != 500 {
		t.Errorf("lt+ge = %d + %d, want 500", res.Queries[2].Count, res.Queries[3].Count)
	}
	if res.Queries[0].Count <= 0 || res.Queries[0].Count >= 500 {
		t.Errorf("between count = %d, expected a proper subset", res.Queries[0].Count)
	}
}

func TestGroupedSum(t *testing.T) {
	e := fixture(t)
	q := NewQuery("gsum").From("fact").From("dim").
		Join("fact", "fk", "dim", "k").
		Sum("fact", "v").GroupBy("dim", "g").OrderByKey()
	res, err := e.ExecuteBatch([]*Query{q}, nil)
	if err != nil {
		t.Fatal(err)
	}
	groups := res.Queries[0].Groups
	if len(groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(groups))
	}
	for i := 1; i < len(groups); i++ {
		if groups[i].Key <= groups[i-1].Key {
			t.Error("groups not sorted by key")
		}
	}
}

func TestAllPoliciesAgree(t *testing.T) {
	e := fixture(t)
	var want int64 = -1
	for _, pol := range []PolicyKind{PolicyLearned, PolicyGreedy, PolicyRandom, PolicyStitchShare, PolicyMatchShare} {
		qs := []*Query{
			NewQuery("a").From("fact").From("dim").Join("fact", "fk", "dim", "k").Between("fact", "v", 0, 49),
			NewQuery("b").From("fact").From("dim").Join("fact", "fk", "dim", "k").Eq("dim", "g", 1),
		}
		res, err := e.ExecuteBatch(qs, &Options{Policy: pol, Seed: 3})
		if err != nil {
			t.Fatalf("policy %d: %v", pol, err)
		}
		got := res.Queries[0].Count + res.Queries[1].Count*1000
		if want == -1 {
			want = got
		} else if got != want {
			t.Errorf("policy %d disagrees: %d vs %d", pol, got, want)
		}
	}
}

func TestExecuteBatchErrors(t *testing.T) {
	e := fixture(t)
	if _, err := e.ExecuteBatch(nil, nil); err == nil {
		t.Error("empty batch accepted")
	}
	bad := NewQuery("bad").From("fact").Between("fact", "v", 9, 3)
	if _, err := e.ExecuteBatch([]*Query{bad}, nil); err == nil {
		t.Error("builder error not surfaced")
	}
	missing := NewQuery("missing").From("nope")
	if _, err := e.ExecuteBatch([]*Query{missing}, nil); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestCreateTableValidation(t *testing.T) {
	e := NewEngine()
	if err := e.CreateTable("t"); err == nil {
		t.Error("zero-column table accepted")
	}
	if err := e.CreateTable("t", Col("a", 1, 2), Col("b", 1)); err == nil {
		t.Error("ragged columns accepted")
	}
	if err := e.CreateTable("t", Col("a", 1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable("t", Col("a", 1)); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestAdmissionsOption(t *testing.T) {
	e := fixture(t)
	qs := []*Query{
		NewQuery("now").From("fact").From("dim").Join("fact", "fk", "dim", "k"),
		NewQuery("later").From("fact").From("dim").Join("fact", "fk", "dim", "k").Between("fact", "v", 0, 30),
	}
	res, err := e.ExecuteBatch(qs, &Options{
		VectorSize: 64,
		Admissions: []Admission{{AfterFraction: 0.5, Queries: []int{1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries[0].Count != 500 {
		t.Errorf("query 0 count = %d", res.Queries[0].Count)
	}
	if res.Queries[1].Count <= 0 {
		t.Errorf("late-admitted query count = %d", res.Queries[1].Count)
	}
}

func TestConvergenceOption(t *testing.T) {
	e := fixture(t)
	q := NewQuery("c").From("fact").From("dim").Join("fact", "fk", "dim", "k")
	res, err := e.ExecuteBatch([]*Query{q}, &Options{TrackConvergence: true, VectorSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Convergence) == 0 {
		t.Error("no convergence points")
	}
}

func TestSelfJoinThroughAliases(t *testing.T) {
	e := NewEngine()
	e.MustCreateTable("r", Col("a", 1, 2, 3, 4), Col("b", 2, 3, 4, 5))
	q := NewQuery("self").
		FromAs("r", "x").FromAs("r", "y").
		Join("x", "b", "y", "a")
	res, err := e.ExecuteBatch([]*Query{q}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs (x,y) with x.b == y.a: b values 2,3,4 match a values 2,3,4.
	if res.Queries[0].Count != 3 {
		t.Errorf("self-join count = %d, want 3", res.Queries[0].Count)
	}
}

func TestCalibratedCostModelOption(t *testing.T) {
	e := fixture(t)
	q := NewQuery("cal").From("fact").From("dim").Join("fact", "fk", "dim", "k")
	res, err := e.ExecuteBatch([]*Query{q}, &Options{CalibrateCostModel: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries[0].Count != 500 {
		t.Errorf("count = %d", res.Queries[0].Count)
	}
	// Second batch reuses the calibrated model (no panic, same results).
	if _, err := e.ExecuteBatch([]*Query{q}, &Options{CalibrateCostModel: true}); err != nil {
		t.Fatal(err)
	}
}

func TestDiscardRowsRejectsRowConsumers(t *testing.T) {
	e := fixture(t)
	q := NewQuery("s").From("fact").From("dim").Join("fact", "fk", "dim", "k").Sum("fact", "v")
	if _, err := e.ExecuteBatch([]*Query{q}, &Options{DiscardRows: true}); err == nil {
		t.Error("DiscardRows with SUM should be rejected, not silently zero")
	}
	// COUNT(*) is fine.
	c := NewQuery("c").From("fact").From("dim").Join("fact", "fk", "dim", "k").CountStar()
	if _, err := e.ExecuteBatch([]*Query{c}, &Options{DiscardRows: true}); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteBatchCancelManyWorkers cancels a batch that runs on more
// workers than it has scans: idle workers wait on the scheduler's condvar
// rather than exiting, so the call must still return partial results
// promptly and leave no goroutine behind.
func TestExecuteBatchCancelManyWorkers(t *testing.T) {
	e := streamFixture(t, 400000)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := e.ExecuteBatchContext(ctx, streamWorkload(), &Options{Workers: 8, VectorSize: 64})
	if err != nil {
		t.Fatalf("cancellation must not be an error: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancelled batch took %v to return", d)
	}
	if !res.Partial {
		t.Fatal("a 2ms budget finished 6250 episodes per relation pass")
	}
	for _, q := range res.Queries {
		if q.Aborted && !errors.Is(q.Err, context.DeadlineExceeded) {
			t.Errorf("query %s: err = %v, want context.DeadlineExceeded", q.Tag, q.Err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines after run = %d, before = %d", g, before)
	}
}
