// Command roulette-demo executes a generated TPC-DS multi-query workload on
// RouLette and the query-at-a-time baseline side by side, printing per-query
// results and the sharing statistics that explain the speedup.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/qat"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/tpcds"
	"github.com/roulette-db/roulette/internal/workload"
)

func main() {
	nQueries := flag.Int("n", 64, "queries in the batch")
	scale := flag.Float64("scale", 0.25, "TPC-DS scale factor")
	joins := flag.Int("joins", 4, "joins per query")
	sel := flag.Float64("selectivity", 0.10, "query selectivity")
	seed := flag.Int64("seed", 1, "seed")
	workers := flag.Int("workers", 1, "RouLette workers")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	fmt.Printf("generating TPC-DS substrate (scale %.2f)...\n", *scale)
	db := tpcds.Generate(*scale, *seed)

	p := workload.Params{Joins: *joins, Selectivity: *sel, Kind: tpcds.SnowflakeStore, Seed: *seed}
	qs := workload.NewGenerator(p).Generate(*nQueries)
	fmt.Printf("generated %d queries (%d joins, %.2g%% selectivity)\n\n", len(qs), *joins, *sel*100)

	// Query-at-a-time baseline.
	counts, qatTime, err := qat.New(db).RunSerial(qs)
	if err != nil {
		logger.Error("query-at-a-time baseline failed", "err", err)
		os.Exit(1)
	}
	fmt.Printf("DBMS-V (query-at-a-time): %8.3fs  (%.2f q/s)\n", qatTime.Seconds(), float64(len(qs))/qatTime.Seconds())

	// RouLette shared execution.
	b, err := query.Compile(qs)
	if err != nil {
		logger.Error("compile failed", "err", err)
		os.Exit(1)
	}
	opt := exec.DefaultOptions()
	opt.CollectRows = false
	s, err := engine.NewSession(b, db, engine.Config{Exec: opt, Workers: *workers})
	if err != nil {
		logger.Error("session failed", "err", err)
		os.Exit(1)
	}
	// Ctrl-C stops the shared run gracefully: in-flight episodes finish and
	// the results below are reported as partial.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := s.RunContext(ctx)
	if err != nil {
		logger.Error("run failed", "err", err)
		os.Exit(1)
	}
	fmt.Printf("RouLette (shared batch):  %8.3fs  (%.2f q/s)  speedup %.2fx\n\n",
		res.Elapsed.Seconds(), float64(len(qs))/res.Elapsed.Seconds(), qatTime.Seconds()/res.Elapsed.Seconds())

	st := &s.Context().Stats
	f, bd, pr, rt := st.Breakdown()
	fmt.Printf("episodes: %d   intermediate join tuples: %d\n", res.Episodes, res.JoinTuples)
	fmt.Printf("time breakdown: filter %.0f%%  build %.0f%%  probe %.0f%%  route %.0f%%\n\n",
		f*100, bd*100, pr*100, rt*100)

	mismatch, aborted := 0, 0
	for qid := range qs {
		if res.Partial && !res.Status[qid].Completed {
			aborted++
			continue // partial counts are lower bounds, not comparable
		}
		if res.Counts[qid] != counts[qid] {
			mismatch++
			fmt.Printf("MISMATCH %s: roulette=%d qat=%d\n", qs[qid].Tag, res.Counts[qid], counts[qid])
		}
	}
	if aborted > 0 {
		fmt.Printf("interrupted: %d/%d queries aborted before completing\n", aborted, len(qs))
	}
	if mismatch == 0 {
		fmt.Printf("all %d completed query results verified against the query-at-a-time engine\n", len(qs)-aborted)
	} else {
		os.Exit(1)
	}
}
