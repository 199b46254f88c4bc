package host

import (
	"math/rand"
	"testing"

	"github.com/roulette-db/roulette/internal/catalog"
	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
)

// hostDB: fact(fk, m) joined to dim(k, g).
func hostDB(rng *rand.Rand) *storage.Database {
	fact := catalog.NewRelation("fact", "fk", "m")
	dim := catalog.NewRelation("dim", "k", "g")
	sch := catalog.NewSchema(fact, dim)
	db := storage.NewDatabase(sch)
	ft := storage.NewTable(fact, 100)
	for i := 0; i < 100; i++ {
		ft.Col("fk")[i] = int64(rng.Intn(10))
		ft.Col("m")[i] = int64(i)
	}
	db.Put(ft)
	dt := storage.NewTable(dim, 10)
	for i := 0; i < 10; i++ {
		dt.Col("k")[i] = int64(i)
		dt.Col("g")[i] = int64(i % 3)
	}
	db.Put(dt)
	return db
}

func runHost(t *testing.T, db *storage.Database, qs []*query.Query) ([]*Result, *query.Batch) {
	t.Helper()
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := engine.NewSession(b, db, engine.Config{Exec: exec.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	res := make([]*Result, b.N)
	for qid := range res {
		if res[qid], err = Consume(db, b, qid, s.Context().Sources[qid]); err != nil {
			t.Fatal(err)
		}
	}
	return res, b
}

func TestCountStar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	db := hostDB(rng)
	q := &query.Query{
		Rels:  []query.RelRef{{Table: "fact"}, {Table: "dim"}},
		Joins: []query.Join{{LeftAlias: "fact", LeftCol: "fk", RightAlias: "dim", RightCol: "k"}},
	}
	res, _ := runHost(t, db, []*query.Query{q})
	if len(res[0].Groups) != 1 || res[0].Groups[0].Value != 100 {
		t.Errorf("COUNT(*) = %+v, want 100", res[0].Groups)
	}
}

func TestSum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := hostDB(rng)
	q := &query.Query{
		Rels:  []query.RelRef{{Table: "fact"}, {Table: "dim"}},
		Joins: []query.Join{{LeftAlias: "fact", LeftCol: "fk", RightAlias: "dim", RightCol: "k"}},
		Agg:   query.Agg{Kind: query.AggSum, Alias: "fact", Col: "m"},
	}
	res, _ := runHost(t, db, []*query.Query{q})
	// Every fact row joins exactly once; sum of m = 0+..+99 = 4950.
	if res[0].Groups[0].Value != 4950 {
		t.Errorf("SUM = %d, want 4950", res[0].Groups[0].Value)
	}
}

func TestGroupBySorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := hostDB(rng)
	q := &query.Query{
		Rels:  []query.RelRef{{Table: "fact"}, {Table: "dim"}},
		Joins: []query.Join{{LeftAlias: "fact", LeftCol: "fk", RightAlias: "dim", RightCol: "k"}},
		Agg: query.Agg{
			Kind: query.AggCount, GroupByAlias: "dim", GroupByCol: "g", Sorted: true,
		},
	}
	res, _ := runHost(t, db, []*query.Query{q})
	groups := res[0].Groups
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	var total int64
	for i, g := range groups {
		if g.Key != int64(i) {
			t.Errorf("group %d key = %d (unsorted?)", i, g.Key)
		}
		total += g.Value
	}
	if total != 100 {
		t.Errorf("group totals = %d, want 100", total)
	}
}

func TestGroupedSumMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	db := hostDB(rng)
	q := &query.Query{
		Rels:  []query.RelRef{{Table: "fact"}, {Table: "dim"}},
		Joins: []query.Join{{LeftAlias: "fact", LeftCol: "fk", RightAlias: "dim", RightCol: "k"}},
		Agg: query.Agg{
			Kind: query.AggSum, Alias: "fact", Col: "m",
			GroupByAlias: "dim", GroupByCol: "g", Sorted: true,
		},
	}
	res, _ := runHost(t, db, []*query.Query{q})

	// Manual computation.
	want := map[int64]int64{}
	fk := db.MustTable("fact").Col("fk")
	m := db.MustTable("fact").Col("m")
	g := db.MustTable("dim").Col("g")
	for i := range fk {
		want[g[fk[i]]] += m[i]
	}
	for _, grp := range res[0].Groups {
		if want[grp.Key] != grp.Value {
			t.Errorf("group %d: sum = %d, want %d", grp.Key, grp.Value, want[grp.Key])
		}
	}
}

func TestMinMaxAvg(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	db := hostDB(rng)
	mk := func(kind query.AggKind) *query.Query {
		return &query.Query{
			Rels:  []query.RelRef{{Table: "fact"}, {Table: "dim"}},
			Joins: []query.Join{{LeftAlias: "fact", LeftCol: "fk", RightAlias: "dim", RightCol: "k"}},
			Agg:   query.Agg{Kind: kind, Alias: "fact", Col: "m"},
		}
	}
	res, _ := runHost(t, db, []*query.Query{mk(query.AggMin), mk(query.AggMax), mk(query.AggAvg)})
	// fact.m = 0..99, all rows join exactly once.
	if got := res[0].Groups[0].Value; got != 0 {
		t.Errorf("MIN = %d, want 0", got)
	}
	if got := res[1].Groups[0].Value; got != 99 {
		t.Errorf("MAX = %d, want 99", got)
	}
	if got := res[2].Groups[0].Value; got != 49 { // 4950/100
		t.Errorf("AVG = %d, want 49", got)
	}
}

func TestGroupedMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	db := hostDB(rng)
	q := &query.Query{
		Rels:  []query.RelRef{{Table: "fact"}, {Table: "dim"}},
		Joins: []query.Join{{LeftAlias: "fact", LeftCol: "fk", RightAlias: "dim", RightCol: "k"}},
		Agg: query.Agg{
			Kind: query.AggMax, Alias: "fact", Col: "m",
			GroupByAlias: "dim", GroupByCol: "g", Sorted: true,
		},
	}
	res, _ := runHost(t, db, []*query.Query{q})
	// Manual per-group max.
	want := map[int64]int64{}
	fk := db.MustTable("fact").Col("fk")
	m := db.MustTable("fact").Col("m")
	g := db.MustTable("dim").Col("g")
	for i := range fk {
		if m[i] > want[g[fk[i]]] {
			want[g[fk[i]]] = m[i]
		}
	}
	for _, grp := range res[0].Groups {
		if want[grp.Key] != grp.Value {
			t.Errorf("group %d: max = %d, want %d", grp.Key, grp.Value, want[grp.Key])
		}
	}
}
