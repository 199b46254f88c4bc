// Command bench-compare checks a fresh roulette-bench JSON report against a
// baseline — one of the three committed ones (BENCH_stream.json,
// BENCH_scaling.json, BENCH_stress.json) or any earlier report, bare or
// combined; no strings or warmstart baseline is committed — within a
// multiplicative tolerance. It is the CI tripwire that
// makes kernel regressions fail loudly: absolute numbers vary wildly across
// runner hardware, so the tolerance is generous by default and the check
// only catches order-of-magnitude cliffs.
//
// Usage:
//
//	bench-compare -baseline BENCH_scaling.json -current /tmp/out.json -tolerance 10
//
// Every headline metric present in BOTH files is compared; metrics missing
// from either side are skipped (so a stream baseline can be checked against
// a stream-only run). Exit status 1 means at least one metric regressed
// beyond tolerance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"

	"github.com/roulette-db/roulette/internal/bench"
)

// report mirrors the roulette-bench JSON schema (only the compared parts).
type report struct {
	Perf      *bench.PerfReport      `json:"perf"`
	Stream    *bench.StreamReport    `json:"stream"`
	Scaling   *bench.ScalingReport   `json:"scaling"`
	Stress    *bench.StressReport    `json:"stress"`
	Strings   *bench.StringsReport   `json:"strings"`
	Warmstart *bench.WarmstartReport `json:"warmstart"`

	// BENCH_stream.json, BENCH_scaling.json and BENCH_stress.json (the
	// committed baselines) and the output of -fig strings are bare reports,
	// not full BENCH.json files; detect that by their own headline fields. A bare stress report also
	// has "qps", so the tenant table is checked first.
	QPS     float64                 `json:"qps"`
	Rows    []bench.ScalingRow      `json:"rows"`
	Tenants []bench.TenantStressRow `json:"tenants"`
	Systems []bench.StringsRow      `json:"systems"`

	// NumCPU is present in combined BENCH.json headers and in bare scaling
	// reports; it gates the speedup tripwire (a <4-CPU host cannot measure
	// speedup@4workers).
	NumCPU int `json:"num_cpu"`
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	// Normalize bare section files into the combined shape.
	if r.Stress == nil && len(r.Tenants) > 0 {
		var s bench.StressReport
		if json.Unmarshal(data, &s) == nil {
			r.Stress = &s
		}
	}
	if r.Stream == nil && r.Stress == nil && r.QPS > 0 {
		var s bench.StreamReport
		if json.Unmarshal(data, &s) == nil {
			r.Stream = &s
		}
	}
	if r.Scaling == nil && len(r.Rows) > 0 {
		var s bench.ScalingReport
		if json.Unmarshal(data, &s) == nil {
			r.Scaling = &s
		}
	}
	if r.Strings == nil && len(r.Systems) > 0 {
		var s bench.StringsReport
		if json.Unmarshal(data, &s) == nil {
			r.Strings = &s
		}
	}
	return &r, nil
}

type checker struct {
	tol    float64
	failed bool
}

// higher checks a bigger-is-better metric: current must stay within
// baseline/tol.
func (c *checker) higher(name string, baseline, current float64) {
	if baseline <= 0 {
		return
	}
	ok := current >= baseline/c.tol
	c.report(name, baseline, current, ok)
}

// lower checks a smaller-is-better metric: current must stay within
// baseline*tol.
func (c *checker) lower(name string, baseline, current float64) {
	if baseline <= 0 {
		return
	}
	ok := current <= baseline*c.tol
	c.report(name, baseline, current, ok)
}

// speedup checks the headline scaling metric against a fixed 10% floor,
// independent of -tolerance: speedup is a ratio of same-host runs, so it is
// far more stable than absolute throughput and deserves a tight tripwire.
func (c *checker) speedup(name string, baseline, current float64) {
	if baseline <= 0 {
		return
	}
	c.report(name, baseline, current, current >= baseline*0.9)
}

func (c *checker) report(name string, baseline, current float64, ok bool) {
	status := "ok"
	if !ok {
		status = "REGRESSED"
		c.failed = true
	}
	fmt.Printf("%-40s baseline %12.2f  current %12.2f  [%s]\n", name, baseline, current, status)
}

// scalingRow finds the sample for a worker count, or nil.
func scalingRow(rep *bench.ScalingReport, workers int) *bench.ScalingRow {
	for i := range rep.Rows {
		if rep.Rows[i].Workers == workers {
			return &rep.Rows[i]
		}
	}
	return nil
}

// checkSpeedup is the speedup@4workers tripwire: the repo's scalability
// claim is CI-tracked as the wall-clock speedup of 4 workers over 1, and a
// drop of 10% or more against the committed baseline fails the build. The
// check auto-skips when either side cannot measure it honestly: a host with
// fewer than 4 CPUs, or a baseline row recorded oversubscribed.
func checkSpeedup(c *checker, base, cur *report) {
	b4, g4 := scalingRow(base.Scaling, 4), scalingRow(cur.Scaling, 4)
	if b4 == nil || g4 == nil {
		return
	}
	curCPU := cur.NumCPU
	if curCPU == 0 {
		curCPU = cur.Scaling.NumCPU
	}
	switch {
	case curCPU > 0 && curCPU < 4:
		fmt.Printf("%-40s skipped (current host has %d CPUs; speedup@4workers needs >= 4)\n",
			"scaling.workers4.speedup", curCPU)
	case g4.Oversubscribed:
		fmt.Printf("%-40s skipped (current row ran oversubscribed: %d workers on %d CPUs)\n",
			"scaling.workers4.speedup", g4.Workers, g4.NumCPU)
	case b4.Oversubscribed:
		fmt.Printf("%-40s skipped (baseline row was recorded oversubscribed; regenerate BENCH_scaling.json on a >=4-CPU host)\n",
			"scaling.workers4.speedup")
	default:
		c.speedup("scaling.workers4.speedup", b4.Speedup, g4.Speedup)
	}
}

// checkWarmstart is the policy-persistence tripwire. The headline metric —
// how many fewer tuples the warm arm routes in steady state — is a ratio of
// two same-host, same-seed runs, so like speedup it gets a fixed floor
// instead of the generous -tolerance: the current reduction must stay above
// half the committed baseline's. Cache hits go through the generic check so
// a warm arm that silently stops hitting the cache also fails.
func checkWarmstart(c *checker, base, cur *bench.WarmstartReport) {
	if base.JoinTupleReduction > 0 {
		c.report("warmstart.join_tuple_reduction", base.JoinTupleReduction,
			cur.JoinTupleReduction, cur.JoinTupleReduction >= base.JoinTupleReduction*0.5)
	}
	c.higher("warmstart.qps_ratio", base.QPSRatio, cur.QPSRatio)
	c.higher("warmstart.cache_hits", float64(base.CacheHits), float64(cur.CacheHits))
}

func main() {
	basePath := flag.String("baseline", "", "committed baseline JSON (required)")
	curPath := flag.String("current", "", "freshly generated JSON (required)")
	tol := flag.Float64("tolerance", 10, "allowed multiplicative slack in either direction")
	flag.Parse()
	if *basePath == "" || *curPath == "" || *tol < 1 {
		flag.Usage()
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	base, err := load(*basePath)
	if err != nil {
		logger.Error("loading baseline failed", "err", err)
		os.Exit(1)
	}
	cur, err := load(*curPath)
	if err != nil {
		logger.Error("loading current results failed", "err", err)
		os.Exit(1)
	}

	c := &checker{tol: *tol}
	if base.Perf != nil && cur.Perf != nil {
		for _, e := range base.Perf.EpisodeStep {
			for _, g := range cur.Perf.EpisodeStep {
				if g.Name == e.Name {
					c.lower("perf."+e.Name+".ns_per_op", e.NsPerOp, g.NsPerOp)
				}
			}
		}
		if base.Perf.EpisodeStepZeroAlloc && !cur.Perf.EpisodeStepZeroAlloc {
			c.report("perf.episode_step_zero_alloc", 1, 0, false)
		}
		c.higher("perf.qtable_speedup", base.Perf.QTableSpeedup, cur.Perf.QTableSpeedup)
		c.lower("perf.stem_insert_vec.ns_per_op", base.Perf.StemInsertVec.NsPerOp, cur.Perf.StemInsertVec.NsPerOp)
		c.lower("perf.stem_probe_vec.ns_per_op", base.Perf.StemProbeVec.NsPerOp, cur.Perf.StemProbeVec.NsPerOp)
	}
	if base.Stream != nil && cur.Stream != nil {
		c.higher("stream.qps", base.Stream.QPS, cur.Stream.QPS)
		c.lower("stream.submit_p95_micros", base.Stream.SubmitP95Micros, cur.Stream.SubmitP95Micros)
		c.lower("stream.retire_p95_millis", base.Stream.RetireP95Millis, cur.Stream.RetireP95Millis)
	}
	if base.Scaling != nil && cur.Scaling != nil {
		for _, b := range base.Scaling.Rows {
			for _, g := range cur.Scaling.Rows {
				if g.Workers == b.Workers {
					c.higher(fmt.Sprintf("scaling.workers%d.episodes_per_sec", b.Workers),
						b.EpisodesPerSec, g.EpisodesPerSec)
				}
			}
		}
		checkSpeedup(c, base, cur)
	}
	if base.Stress != nil && cur.Stress != nil {
		c.higher("stress.qps", base.Stress.QPS, cur.Stress.QPS)
		for _, b := range base.Stress.Tenants {
			for _, g := range cur.Stress.Tenants {
				if g.Tenant != b.Tenant {
					continue
				}
				// Every tenant class — the rate-limited one included — must
				// keep retiring queries with a bounded latency tail.
				c.higher("stress."+b.Tenant+".retired", float64(b.Retired), float64(g.Retired))
				c.lower("stress."+b.Tenant+".retire_p95_millis", b.RetireP95Millis, g.RetireP95Millis)
			}
		}
	}

	if base.Strings != nil && cur.Strings != nil {
		for _, b := range base.Strings.Systems {
			for _, g := range cur.Strings.Systems {
				if g.System == b.System {
					c.higher("strings."+b.System+".qps", b.QPS, g.QPS)
				}
			}
		}
		// Typed-path correctness is pass/fail, not a throughput band: a
		// current run whose string-workload counts diverge from the
		// tuple-at-a-time baseline fails regardless of tolerance.
		if base.Strings.MatchesBaseline {
			cur1 := 0.0
			if cur.Strings.MatchesBaseline {
				cur1 = 1
			}
			c.report("strings.matches_baseline", 1, cur1, cur.Strings.MatchesBaseline)
		}
	}

	if base.Warmstart != nil && cur.Warmstart != nil {
		checkWarmstart(c, base.Warmstart, cur.Warmstart)
	}

	if c.failed {
		fmt.Println("bench-compare: FAIL (at least one metric regressed beyond tolerance)")
		os.Exit(1)
	}
	fmt.Println("bench-compare: all compared metrics within tolerance")
}
