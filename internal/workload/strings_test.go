package workload

import (
	"testing"

	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/monet"
	"github.com/roulette-db/roulette/internal/qat"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/value"
)

func TestStringsDBShape(t *testing.T) {
	db := StringsDB(0.1, 7)

	// The cross-relation string join is only executable because both nation
	// columns share ONE dictionary.
	sn := db.MustTable("supplier").Rel.Column("s_nation")
	cn := db.MustTable("customer").Rel.Column("c_nation")
	if sn == nil || cn == nil || sn.Dict == nil {
		t.Fatal("nation columns missing or untyped")
	}
	if sn.Dict != cn.Dict {
		t.Fatal("supplier.s_nation and customer.c_nation must share a dictionary")
	}
	if got := sn.Dict.Len(); got != len(Nations) {
		t.Fatalf("nation dictionary has %d entries, want %d", got, len(Nations))
	}

	// The nullable column actually contains NULLs, and nothing else does.
	li := db.MustTable("lineitem")
	var nulls int
	for _, v := range li.Col("l_returnflag") {
		if v == value.NullCode {
			nulls++
		}
	}
	if nulls == 0 || nulls == li.NumRows() {
		t.Fatalf("l_returnflag NULL count = %d of %d rows", nulls, li.NumRows())
	}
	for _, v := range li.Col("l_shipmode") {
		if v == value.NullCode {
			t.Fatal("non-nullable l_shipmode contains a NULL sentinel")
		}
	}

	// Skew: the most popular ship mode should clearly dominate the least.
	counts := make(map[int64]int)
	for _, v := range li.Col("l_shipmode") {
		counts[v]++
	}
	min, max := li.NumRows(), 0
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max < 3*min {
		t.Errorf("ship-mode skew too flat: min=%d max=%d", min, max)
	}
}

func TestStringsDBDeterministic(t *testing.T) {
	a := StringsDB(0.1, 3)
	b := StringsDB(0.1, 3)
	for _, name := range a.TableNames() {
		ta, tb := a.MustTable(name), b.MustTable(name)
		if ta.NumRows() != tb.NumRows() {
			t.Fatalf("%s: %d vs %d rows", name, ta.NumRows(), tb.NumRows())
		}
		for _, c := range ta.Rel.Columns {
			ca, cb := ta.Col(c.Name), tb.Col(c.Name)
			for i := range ca {
				if ca[i] != cb[i] {
					t.Fatalf("%s.%s differs at row %d", name, c.Name, i)
				}
			}
		}
	}
}

func TestStringsQueriesCompileAndAgree(t *testing.T) {
	db := StringsDB(0.05, 11)
	qs := NewStringsGen(11).Generate(12)
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatalf("string batch does not compile: %v", err)
	}
	// Two independent tuple-at-a-time engines and the shared engine must
	// agree on every query: string-predicate, cross-relation string-join
	// and NULL semantics over the generated shapes.
	mc, _, err := monet.New(db).RunSerial(qs)
	if err != nil {
		t.Fatalf("monet baseline: %v", err)
	}
	qc, _, err := qat.New(db).RunSerial(qs)
	if err != nil {
		t.Fatalf("qat baseline: %v", err)
	}
	opt := exec.DefaultOptions()
	opt.CollectRows = false
	qcfg := qlearn.DefaultConfig()
	qcfg.Seed = 11
	s, err := engine.NewSession(b, db, engine.Config{Exec: opt, Policy: qlearn.New(qcfg)})
	if err != nil {
		t.Fatalf("shared engine: %v", err)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatalf("shared engine: %v", err)
	}
	if len(r.Counts) != len(qs) {
		t.Fatalf("shared engine returned %d counts for %d queries", len(r.Counts), len(qs))
	}
	for i := range qs {
		if mc[i] != qc[i] || r.Counts[i] != mc[i] {
			t.Errorf("%s: monet=%d qat=%d engine=%d", qs[i].Tag, mc[i], qc[i], r.Counts[i])
		}
	}
	// The IS NULL needle shape must select something at this scale, or the
	// NULL path silently stops being covered.
	var nullShapeCount int64
	for i, q := range qs {
		if i%4 == 3 {
			nullShapeCount += mc[i]
		}
		for _, f := range q.Filters {
			if f.Kind == query.KindStrings && len(f.Strs) == 0 {
				t.Errorf("%s: empty IN list", q.Tag)
			}
		}
	}
	if nullShapeCount == 0 {
		t.Error("IS NULL query shape matched no tuples; NULL path not exercised")
	}
}
