package qat

import (
	"math/rand"
	"testing"

	"github.com/roulette-db/roulette/internal/catalog"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
)

// tinyDB: fact(fk1, fk2, v), d1(k, a), d2(k, a) with known contents.
func tinyDB(rng *rand.Rand, factRows, dimRows int) *storage.Database {
	fact := catalog.NewRelation("fact", "fk1", "fk2", "v")
	d1 := catalog.NewRelation("d1", "k", "a")
	d2 := catalog.NewRelation("d2", "k", "a")
	sch := catalog.NewSchema(fact, d1, d2)
	db := storage.NewDatabase(sch)
	ft := storage.NewTable(fact, factRows)
	for i := 0; i < factRows; i++ {
		ft.Col("fk1")[i] = int64(rng.Intn(dimRows))
		ft.Col("fk2")[i] = int64(rng.Intn(dimRows))
		ft.Col("v")[i] = int64(rng.Intn(100))
	}
	db.Put(ft)
	for _, nm := range []string{"d1", "d2"} {
		dt := storage.NewTable(sch.Relation(nm), dimRows)
		for i := 0; i < dimRows; i++ {
			dt.Col("k")[i] = int64(i)
			dt.Col("a")[i] = int64(rng.Intn(100))
		}
		db.Put(dt)
	}
	return db
}

// bruteCount is an exhaustive evaluation for ground truth.
func bruteCount(db *storage.Database, q *query.Query) int64 {
	tables := make([]*storage.Table, len(q.Rels))
	alias := map[string]int{}
	for i, r := range q.Rels {
		tables[i] = db.MustTable(r.Table)
		a := r.Alias
		if a == "" {
			a = r.Table
		}
		alias[a] = i
	}
	var count int64
	pick := make([]int, len(q.Rels))
	var rec func(d int)
	rec = func(d int) {
		if d == len(q.Rels) {
			for _, f := range q.Filters {
				v := tables[alias[f.Alias]].Col(f.Col)[pick[alias[f.Alias]]]
				if v < f.Lo || v > f.Hi {
					return
				}
			}
			for _, j := range q.Joins {
				lv := tables[alias[j.LeftAlias]].Col(j.LeftCol)[pick[alias[j.LeftAlias]]]
				rv := tables[alias[j.RightAlias]].Col(j.RightCol)[pick[alias[j.RightAlias]]]
				if lv != rv {
					return
				}
			}
			count++
			return
		}
		for r := 0; r < tables[d].NumRows(); r++ {
			pick[d] = r
			rec(d + 1)
		}
	}
	rec(0)
	return count
}

func randomQuery(rng *rand.Rand) *query.Query {
	q := &query.Query{
		Rels:  []query.RelRef{{Table: "fact"}, {Table: "d1"}},
		Joins: []query.Join{{LeftAlias: "fact", LeftCol: "fk1", RightAlias: "d1", RightCol: "k"}},
	}
	if rng.Intn(2) == 0 {
		q.Rels = append(q.Rels, query.RelRef{Table: "d2"})
		q.Joins = append(q.Joins, query.Join{LeftAlias: "fact", LeftCol: "fk2", RightAlias: "d2", RightCol: "k"})
	}
	if rng.Intn(2) == 0 {
		lo := int64(rng.Intn(70))
		q.Filters = append(q.Filters, query.Filter{Alias: "fact", Col: "v", Lo: lo, Hi: lo + 25})
	}
	if rng.Intn(3) == 0 {
		lo := int64(rng.Intn(70))
		q.Filters = append(q.Filters, query.Filter{Alias: "d1", Col: "a", Lo: lo, Hi: lo + 40})
	}
	return q
}

func TestQatMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := tinyDB(rng, 60, 12)
	e := New(db)
	e.VectorSize = 16
	for i := 0; i < 25; i++ {
		q := randomQuery(rng)
		got, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteCount(db, q)
		if got != want {
			t.Errorf("query %d: qat = %d, brute = %d", i, got, want)
		}
	}
}

func TestQatSingleRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db := tinyDB(rng, 50, 10)
	q := &query.Query{
		Rels:    []query.RelRef{{Table: "fact"}},
		Filters: []query.Filter{{Alias: "fact", Col: "v", Lo: 0, Hi: 49}},
	}
	got, err := New(db).Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteCount(db, q); got != want {
		t.Errorf("got %d, want %d", got, want)
	}
}

func TestQatPlanDriverIsLargest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := tinyDB(rng, 500, 10)
	q := randomQuery(rng)
	p, err := New(db).Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Order[0].Alias != "fact" {
		t.Errorf("driver = %s, want fact", p.Order[0].Alias)
	}
	if len(p.Order) != len(q.Rels) {
		t.Errorf("plan order incomplete: %+v", p.Order)
	}
}

func TestQatErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	db := tinyDB(rng, 10, 4)
	e := New(db)
	if _, err := e.Run(&query.Query{Rels: []query.RelRef{{Table: "nope"}}}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := e.Run(&query.Query{
		Rels:    []query.RelRef{{Table: "fact"}},
		Filters: []query.Filter{{Alias: "zzz", Col: "v", Lo: 0, Hi: 1}},
	}); err == nil {
		t.Error("unknown filter alias accepted")
	}
	// Disconnected (no joins, 2 rels).
	if _, err := e.Run(&query.Query{
		Rels: []query.RelRef{{Table: "fact"}, {Table: "d1"}},
	}); err == nil {
		t.Error("disconnected query accepted")
	}
}

func TestQatConcurrentMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	db := tinyDB(rng, 80, 10)
	e := New(db)
	var qs []*query.Query
	for i := 0; i < 12; i++ {
		qs = append(qs, randomQuery(rng))
	}
	serial, _, err := e.RunSerial(qs)
	if err != nil {
		t.Fatal(err)
	}
	conc, _, err := e.RunConcurrent(qs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i] != conc[i] {
			t.Errorf("query %d: serial %d != concurrent %d", i, serial[i], conc[i])
		}
	}
}

func TestQatCyclicResidualPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	db := tinyDB(rng, 40, 8)
	q := &query.Query{
		Rels: []query.RelRef{{Table: "fact"}, {Table: "d1"}, {Table: "d2"}},
		Joins: []query.Join{
			{LeftAlias: "fact", LeftCol: "fk1", RightAlias: "d1", RightCol: "k"},
			{LeftAlias: "fact", LeftCol: "fk2", RightAlias: "d2", RightCol: "k"},
			{LeftAlias: "d1", LeftCol: "a", RightAlias: "d2", RightCol: "a"},
		},
	}
	e := New(db)
	p, err := e.Optimize(q)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := range p.Order {
		total += len(p.Order[i].Residuals)
	}
	if total != 1 {
		t.Fatalf("residual checks = %d, want 1", total)
	}
	if len(p.Order[len(p.Order)-1].Residuals) != 1 {
		t.Error("residual must attach to the step placing its second endpoint")
	}
	got := e.Execute(p)
	if want := bruteCount(db, q); got != want {
		t.Errorf("cyclic execute = %d, brute = %d", got, want)
	}
}
