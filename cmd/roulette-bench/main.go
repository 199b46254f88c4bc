// Command roulette-bench regenerates the tables and figures of the paper's
// evaluation (§6). Each -fig value maps to one experiment; see DESIGN.md's
// per-experiment index and EXPERIMENTS.md for paper-vs-measured notes.
//
// Usage:
//
//	roulette-bench -fig 11a            # throughput vs batch size
//	roulette-bench -fig all -quick     # every figure, reduced sweeps
//	roulette-bench -fig 13 -scale 0.5  # policy quality at a larger scale
//
// The engine's own speed is measured by BENCHMARK.json + benchmark/, not here.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	roulette "github.com/roulette-db/roulette"
	"github.com/roulette-db/roulette/internal/bench"
)

type figure struct {
	name string
	run  func(*bench.Config) error
}

// fig wraps a harness method as a figure; the CLI prints as it runs and
// has no use for the returned rows.
func fig[T any](name string, f func(*bench.Config) (T, error)) figure {
	return figure{name, func(c *bench.Config) error { _, err := f(c); return err }}
}

// figures is the one ordered list of experiments: -fig accepts exactly
// these names, the help text prints them and "all" runs them in this order.
var figures = []figure{
	fig("11a", (*bench.Config).Fig11a),
	fig("11b", (*bench.Config).Fig11b),
	fig("11c", (*bench.Config).Fig11c),
	fig("11d", (*bench.Config).Fig11d),
	fig("12", (*bench.Config).Fig12),
	fig("13", (*bench.Config).Fig13),
	fig("14", (*bench.Config).Fig14),
	fig("16", (*bench.Config).Fig16),
	fig("17", (*bench.Config).Fig17),
	fig("18", (*bench.Config).Fig18),
	fig("19", (*bench.Config).Fig19),
	fig("20", (*bench.Config).Fig20),
	fig("swo", (*bench.Config).SWO),
	fig("corrstress", (*bench.Config).CorrStress),
	fig("batching", (*bench.Config).Batching),
}

// figureNames lists the valid -fig values in order, "all" last.
func figureNames() string {
	names := make([]string, 0, len(figures)+1)
	for _, f := range figures {
		names = append(names, f.name)
	}
	return strings.Join(append(names, "all"), " ")
}

func main() { os.Exit(realMain(os.Args[1:])) }

// realMain is main with an exit code in place of os.Exit, so the deferred
// profile writers run on every path: a failed or interrupted profiled sweep
// still leaves complete profiles.
func realMain(args []string) int {
	fs := flag.NewFlagSet("roulette-bench", flag.ContinueOnError)
	figName := fs.String("fig", "all", "figure to reproduce: "+figureNames())
	scale := fs.Float64("scale", 0.25, "TPC-DS scale factor (facts scale linearly)")
	seed := fs.Int64("seed", 1, "workload and data seed")
	quick := fs.Bool("quick", false, "reduced sweeps for a fast pass")
	stats := fs.Bool("stats", false, "print an execution-stats line after each RouLette-family run")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics (Prometheus text + JSON) on this address while the sweep runs")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at sweep end to this file")
	blockProfile := fs.String("blockprofile", "", "write a goroutine blocking profile at sweep end to this file (enables block profiling for the whole run)")
	mutexProfile := fs.String("mutexprofile", "", "write a mutex contention profile at sweep end to this file (enables mutex profiling for the whole run)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // Parse has printed the error and the usage
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	var selected []figure
	for _, f := range figures {
		if *figName == "all" || *figName == f.name {
			selected = append(selected, f)
		}
	}
	if len(selected) == 0 {
		logger.Error("unknown figure", "fig", *figName, "valid", figureNames())
		return 2
	}
	cfg := bench.Config{Scale: *scale, Seed: *seed, Quick: *quick, Out: os.Stdout, PrintStats: *stats}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			logger.Error("create cpu profile", "path", *cpuProfile, "err", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			logger.Error("start cpu profile", "err", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("wrote %s\n", *cpuProfile)
		}()
	}
	// Contention profiles answer the scaling question directly: where do
	// workers wait? Rates are set before any session runs so the whole
	// sweep is covered; both profiles are written at sweep end.
	writeLookup := func(profile, path string) {
		f, err := os.Create(path)
		if err != nil {
			logger.Error("create profile", "path", path, "err", err)
			return
		}
		defer f.Close()
		if err := pprof.Lookup(profile).WriteTo(f, 0); err != nil {
			logger.Error("write profile", "profile", profile, "err", err)
			return
		}
		fmt.Printf("wrote %s\n", path)
	}
	if *blockProfile != "" {
		runtime.SetBlockProfileRate(1)
		defer writeLookup("block", *blockProfile)
	}
	if *mutexProfile != "" {
		runtime.SetMutexProfileFraction(1)
		defer writeLookup("mutex", *mutexProfile)
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			logger.Error("create heap profile", "path", *memProfile, "err", err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			logger.Error("write heap profile", "err", err)
			return
		}
		fmt.Printf("wrote %s\n", *memProfile)
	}()

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", roulette.MetricsHandler())
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				logger.Error("metrics server", "err", err)
			}
		}()
		fmt.Printf("serving metrics on http://%s/metrics\n", *metricsAddr)
	}

	// Ctrl-C stops the sweep at the next figure boundary (individual figures
	// run to completion so partial tables are never printed).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	for _, f := range selected {
		if ctx.Err() != nil {
			logger.Warn("interrupted; remaining figures skipped")
			return 1
		}
		start := time.Now()
		if err := f.run(&cfg); err != nil {
			logger.Error("figure failed", "fig", f.name, "err", err)
			return 1
		}
		fmt.Printf("(fig %s done in %.1fs)\n\n", f.name, time.Since(start).Seconds())
	}
	return 0
}
