// Package bench regenerates every table and figure of the paper's
// evaluation (§6). Each FigNN function runs the corresponding experiment
// and prints the same rows/series the paper reports; cmd/roulette-bench and
// the repository's testing.B benchmarks are thin wrappers around them.
//
// Absolute numbers differ from the paper (Go engine on synthetic laptop-
// scale substrates vs a C++ prototype on SF10/IMDB); the reproduction
// target is the shape: who wins, by roughly what factor, and where the
// crossovers fall. EXPERIMENTS.md records paper-vs-measured per figure.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/monet"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/qat"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/sharing"
	"github.com/roulette-db/roulette/internal/storage"
)

// Config parameterizes the harness.
type Config struct {
	Scale float64 // TPC-DS scale factor (facts scale linearly)
	Seed  int64
	Quick bool // reduced sweeps (CI / testing.B)
	Out   io.Writer

	// PrintStats prints a compact execution breakdown after every
	// RouLette-family run.
	PrintStats bool
}

func (c *Config) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// System identifies one compared engine/strategy.
type System int

// The compared systems of §6.1.
const (
	SysMonet System = iota
	SysDBMSV
	SysRouLette
	SysStitchShare
	SysMatchShare
	SysRouLetteGreedy
)

// String names the system as in the paper's legends.
func (s System) String() string {
	switch s {
	case SysMonet:
		return "MonetDB"
	case SysDBMSV:
		return "DBMS-V"
	case SysRouLette:
		return "RouLette"
	case SysStitchShare:
		return "Stitch&Share"
	case SysMatchShare:
		return "Match&Share"
	case SysRouLetteGreedy:
		return "RouLette-Greedy"
	}
	return "?"
}

// RunResult is one system's outcome on one batch.
type RunResult struct {
	System     System
	Queries    int
	Elapsed    time.Duration
	JoinTuples int64
}

// Throughput returns queries/second.
func (r RunResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Queries) / r.Elapsed.Seconds()
}

// runSystem executes the batch on the given system. Shared-work systems run
// the whole batch at once; query-at-a-time systems run queries serially.
func (c *Config) runSystem(sys System, db *storage.Database, qs []*query.Query, workers int) (RunResult, error) {
	res := RunResult{System: sys, Queries: len(qs)}
	switch sys {
	case SysMonet:
		_, el, err := monet.New(db).RunSerial(qs)
		if err != nil {
			return res, err
		}
		res.Elapsed = el
	case SysDBMSV:
		_, el, err := qat.New(db).RunSerial(qs)
		if err != nil {
			return res, err
		}
		res.Elapsed = el
	default:
		b, err := query.Compile(qs)
		if err != nil {
			return res, err
		}
		opt := exec.DefaultOptions()
		opt.CollectRows = false
		var pol policy.Policy
		switch sys {
		case SysRouLette:
			cfg := qlearn.DefaultConfig()
			cfg.Seed = c.Seed
			pol = qlearn.New(cfg)
		case SysRouLetteGreedy:
			pol = policy.NewGreedy()
		case SysStitchShare:
			orders, err := sharing.StitchShareOrders(b, db)
			if err != nil {
				return res, err
			}
			pol = policy.NewStatic(orders)
		case SysMatchShare:
			pol = policy.NewStatic(sharing.MatchShareOrders(b, db, nil))
		}
		s, err := engine.NewSession(b, db, engine.Config{Exec: opt, Workers: workers, Policy: pol})
		if err != nil {
			return res, err
		}
		r, err := s.Run()
		if err != nil {
			return res, err
		}
		res.Elapsed = r.Elapsed
		res.JoinTuples = r.JoinTuples
		if c.PrintStats {
			c.printStats(sys, r.Stats)
		}
	}
	return res, nil
}

// printStats emits one compact line per run.
func (c *Config) printStats(sys System, bs *engine.BatchStats) {
	var stemBytes int64
	for _, st := range bs.Stems {
		stemBytes += st.EstBytes
	}
	c.printf("    [stats %s] ops=%d sharing=%.2f qstates=%d switches=%d stems~%.1fMiB\n",
		sys, bs.Sharing.TotalOps, bs.Sharing.Factor(), bs.Policy.QStates,
		bs.Policy.PlanSwitches, float64(stemBytes)/(1<<20))
}

// sampleWithoutReplacement copies k queries from the pool.
func sampleWithoutReplacement(rng *rand.Rand, pool []*query.Query, k int) []*query.Query {
	if k > len(pool) {
		k = len(pool)
	}
	perm := rng.Perm(len(pool))[:k]
	out := make([]*query.Query, k)
	for i, p := range perm {
		cp := *pool[p]
		out[i] = &cp
	}
	return out
}

// itoa formats an int without strconv noise at call sites.
func itoa(n int) string { return fmt.Sprintf("%d", n) }

// ftoa formats a float compactly.
func ftoa(f float64) string { return fmt.Sprintf("%g", f) }
