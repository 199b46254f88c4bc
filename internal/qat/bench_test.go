package qat_test

import (
	"testing"

	"github.com/roulette-db/roulette/internal/catalog"
	"github.com/roulette-db/roulette/internal/qat"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
	"github.com/roulette-db/roulette/internal/tpcds"
	"github.com/roulette-db/roulette/internal/workload"
)

var sink int64

// benchExecute times Execute alone, over the plans of 16 generated queries
// on the scale-1 substrate (store_sales = 20 000 rows).
func benchExecute(b *testing.B, joins int, sel float64, kind tpcds.SchemaKind) {
	db := tpcds.Generate(1, 1)
	e := qat.New(db)
	qs := workload.NewGenerator(workload.Params{Joins: joins, Selectivity: sel, Kind: kind, Seed: 1}).Generate(16)
	plans := make([]*qat.Plan, len(qs))
	for i, q := range qs {
		p, err := e.Optimize(q)
		if err != nil {
			b.Fatal(err)
		}
		plans[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += e.Execute(plans[i%len(plans)])
	}
}

// The two shapes of the repository benchmark's batch workloads: batch_scan's
// one-join queries behind 1e-4-wide filters, batch_join's six-join queries.
func BenchmarkExecuteScan(b *testing.B) { benchExecute(b, 1, 1e-4, tpcds.SnowflakeStore) }
func BenchmarkExecuteJoin(b *testing.B) { benchExecute(b, 6, 0.3, tpcds.SnowstormAll) }

// TestExecuteAllocsIndependentOfRows: Execute allocates per plan (hash
// tables, one set of pipeline buffers), never per vector, so the same plan
// over a driver of 8 vectors and one of 64 allocates the same number of
// times. The plan filters both sides, joins a many-to-one key and closes a
// cycle, so the selection, probe, gather and residual paths all run.
func TestExecuteAllocsIndependentOfRows(t *testing.T) {
	allocs := func(vectors int) float64 {
		const dimRows = 500
		fact := catalog.NewRelation("fact", "fk", "v")
		dim := catalog.NewRelation("dim", "k", "v")
		db := storage.NewDatabase(catalog.NewSchema(fact, dim))
		ft := storage.NewTable(fact, vectors*1024)
		for r := 0; r < ft.NumRows(); r++ {
			ft.Col("fk")[r] = int64(r % dimRows)
			ft.Col("v")[r] = int64(r % 7)
		}
		dt := storage.NewTable(dim, dimRows)
		for r := 0; r < dimRows; r++ {
			dt.Col("k")[r] = int64(r)
			dt.Col("v")[r] = int64(r % 7)
		}
		db.Put(ft)
		db.Put(dt)
		e := qat.New(db)
		p, err := e.Optimize(&query.Query{
			Rels: []query.RelRef{{Table: "fact"}, {Table: "dim"}},
			Joins: []query.Join{
				{LeftAlias: "fact", LeftCol: "fk", RightAlias: "dim", RightCol: "k"},
				{LeftAlias: "fact", LeftCol: "v", RightAlias: "dim", RightCol: "v"},
			},
			Filters: []query.Filter{
				{Alias: "fact", Col: "v", Lo: 1, Hi: 5},
				{Alias: "dim", Col: "k", Lo: 10, Hi: 400},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Order[1].Residuals) != 1 {
			t.Fatalf("plan has %d residuals, want 1", len(p.Order[1].Residuals))
		}
		if e.Execute(p) == 0 {
			t.Fatal("guard plan returns no rows")
		}
		return testing.AllocsPerRun(10, func() { sink += e.Execute(p) })
	}
	small, large := allocs(8), allocs(64)
	if small != large {
		t.Errorf("Execute allocates %.0f times over 8 vectors and %.0f over 64: something allocates per vector", small, large)
	}
}
