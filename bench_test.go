// Benchmarks regenerating the paper's evaluation (§6), one per table and
// figure, in reduced "quick" form so `go test -bench=.` completes in
// minutes. Run cmd/roulette-bench for the full sweeps; EXPERIMENTS.md
// records paper-vs-measured results per figure.
package roulette

import (
	"context"
	"fmt"
	"io"
	"testing"

	"github.com/roulette-db/roulette/internal/bench"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/tpcds"
	"github.com/roulette-db/roulette/internal/workload"
)

// benchCfg is a small configuration that keeps each iteration fast while
// still exercising the full experiment path.
func benchCfg() bench.Config {
	return bench.Config{Scale: 0.05, Seed: 1, Quick: true, Out: io.Discard}
}

// BenchmarkFig11a — throughput vs batch size (Fig. 11a).
func BenchmarkFig11a(b *testing.B) {
	c := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig11a(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11b — throughput vs selectivity (Fig. 11b).
func BenchmarkFig11b(b *testing.B) {
	c := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig11b(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11c — throughput vs joins per query (Fig. 11c).
func BenchmarkFig11c(b *testing.B) {
	c := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig11c(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11d — throughput vs schema type (Fig. 11d).
func BenchmarkFig11d(b *testing.B) {
	c := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig11d(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12 — JOB batch throughput (Fig. 12).
func BenchmarkFig12(b *testing.B) {
	c := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig12(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13 — plan quality by policy (Fig. 13).
func BenchmarkFig13(b *testing.B) {
	c := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig13(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14 — dynamic admission overlap (Fig. 14).
func BenchmarkFig14(b *testing.B) {
	c := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig14(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16 — learning convergence on chain schemas (Figs. 16a–i).
func BenchmarkFig16(b *testing.B) {
	c := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig16(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig17 — JOB batch pruning ablation (Fig. 17).
func BenchmarkFig17(b *testing.B) {
	c := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig17(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig18 — router and grouped-filter ablation (Fig. 18).
func BenchmarkFig18(b *testing.B) {
	c := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig18(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig19 — multi-worker scale-up (Fig. 19).
func BenchmarkFig19(b *testing.B) {
	c := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig19(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig20 — client interference (Fig. 20).
func BenchmarkFig20(b *testing.B) {
	c := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := c.Fig20(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSWO — the §6.1 offline-sharing scalability anecdote.
func BenchmarkSWO(b *testing.B) {
	c := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := c.SWO(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCorrStress — learned-vs-greedy correlation stress (§4.2 distilled).
func BenchmarkCorrStress(b *testing.B) {
	c := benchCfg()
	for i := 0; i < b.N; i++ {
		if _, err := c.CorrStress(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteBatch measures the public API end to end on a small
// embedded workload.
func BenchmarkExecuteBatch(b *testing.B) {
	e := NewEngine()
	n := 50_000
	fk := make([]int64, n)
	v := make([]int64, n)
	for i := range fk {
		fk[i] = int64(i % 500)
		v[i] = int64(i % 100)
	}
	k := make([]int64, 500)
	for i := range k {
		k[i] = int64(i)
	}
	e.MustCreateTable("fact", ColSlice("fk", fk), ColSlice("v", v))
	e.MustCreateTable("dim", ColSlice("k", k))
	qs := []*Query{
		NewQuery("a").From("fact").From("dim").Join("fact", "fk", "dim", "k").Between("fact", "v", 0, 49),
		NewQuery("b").From("fact").From("dim").Join("fact", "fk", "dim", "k").Between("fact", "v", 25, 74),
		NewQuery("c").From("fact").From("dim").Join("fact", "fk", "dim", "k").Between("fact", "v", 50, 99),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ExecuteBatch(qs, &Options{DiscardRows: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamLoneQuery times one query submitted into an idle stream and
// waited for: Submit (compile and admit), the query's episodes on one
// worker, retirement and result delivery — the per-query cost of a stream
// whose queries mostly run alone. The shape is the benchmark harness's
// stream_paced workload: the TPC-DS-shaped snowflake at scale 2 (store_sales
// 40 000 rows), 4 joins, selectivity 0.1, SUM over the fact's u column. The
// stream cycles through 64 generated queries, so the collector reclaims
// each query's STeM entries between iterations as it would under that load.
func BenchmarkStreamLoneQuery(b *testing.B) {
	e := NewEngineOn(tpcds.Generate(2, 1))
	gen := workload.NewGenerator(workload.Params{Joins: 4, Selectivity: 0.1, Kind: tpcds.SnowflakeStore, Seed: 1})
	var qs []*Query
	for i, q := range gen.Generate(64) {
		q.Tag = fmt.Sprintf("q%02d", i)
		q.Agg = query.Agg{Kind: query.AggSum, Alias: q.Rels[0].Table, Col: "u"} // Rels[0] is the channel fact
		qs = append(qs, &Query{q: *q})
	}
	st, err := e.OpenStream(context.Background(), &StreamOptions{Options: Options{Seed: 1}})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	lone := func(q *Query) {
		tk, err := st.Submit(q)
		if err != nil {
			b.Fatal(err)
		}
		if qr, err := tk.Wait(context.Background()); err != nil || qr.Aborted {
			b.Fatalf("query %s: %v %v", q.Tag(), err, qr.Err)
		}
	}
	for _, q := range qs { // create every instance and warm the policy
		lone(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lone(qs[i%len(qs)])
	}
}
