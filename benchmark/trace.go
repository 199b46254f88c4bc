package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/roulette-db/roulette"
	"github.com/roulette-db/roulette/internal/admission"
	"github.com/roulette-db/roulette/internal/stem"
)

// minTracedRounds is the fewest rounds of each kind, untraced and traced, a
// traced run makes: each kind runs for half of --seconds.
const minTracedRounds = 3

// runTraced is the --trace 1 run: untraced rounds (the timings a user sees
// come from these), traced rounds through the layers, three extra rounds (two
// workers; a policy store cold, then warm) and the benchmark-owned kernels.
// It prints the per-layer metrics and writes the spans to outDir.
func runTraced(sp spec, seed int64, seconds float64, outDir string) (*report, error) {
	fx, err := setUp(sp, seed)
	if err != nil {
		return nil, err
	}
	refBefore := refKernel()

	pt, err := timedRounds(fx, seconds/2, minTracedRounds, roundOptions{})
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tt, err := timedRounds(fx, seconds/2, minTracedRounds, roundOptions{tr: tr})
	if err != nil {
		return nil, err
	}
	plain, traced := pt.rounds, tt.rounds

	runtime.GOMAXPROCS(2)
	two, err := runRound(fx, roundOptions{workers: 2})
	runtime.GOMAXPROCS(1)
	if err != nil {
		return nil, fmt.Errorf("two-worker round: %w", err)
	}
	store, err := roulette.NewPolicyStore(roulette.PolicyStoreOptions{})
	if err != nil {
		return nil, err
	}
	cold, err := runRound(fx, roundOptions{store: store})
	if err != nil {
		return nil, fmt.Errorf("cold policy-store round: %w", err)
	}
	warm, err := runRound(fx, roundOptions{store: store})
	if err != nil {
		return nil, fmt.Errorf("warm policy-store round: %w", err)
	}

	rep := &report{}
	for _, rs := range [][]*roundResult{plain, traced, {pt.settle, tt.settle, two, cold, warm}} {
		for _, r := range rs {
			rep.Attempted += r.attempted
			rep.Failed += r.failed
		}
	}
	rep.Correct = rep.Failed == 0

	m := layerMetrics(plain, traced)
	m["engine.w2_speedup"] = metric{medianOf(plain, wallS) / two.wall.Seconds(), "ratio"}
	m["engine.w2_cpu_ratio"] = metric{two.cpu.Seconds() / medianOf(plain, cpuS), "ratio"}
	m["policystore.warm_join_tuples_ratio"] = metric{float64(warm.reg.joinTuples) / float64(max(cold.reg.joinTuples, 1)), "ratio"}
	ins, probe := stemKernel()
	m["stem.insertvec_ns_per_tuple"] = metric{ins, "ns"}
	m["stem.probevec_ns_per_tuple"] = metric{probe, "ns"}
	adm, err := admissionKernel()
	if err != nil {
		return nil, err
	}
	m["admission.admit_release_ns"] = metric{adm, "ns"}
	m["bench.ref_kernel_ms"] = metric{refBefore, "ms"}
	m["bench.ref_kernel_after_ms"] = metric{refKernel(), "ms"}
	m["bench.peak_rss_mb"] = metric{pt.rssMB, "MB"}
	m["bench.rounds_differing"] = metric{float64(pt.differing + tt.differing), "count"}
	rep.Metrics = m

	if err := writeSpans(outDir, sp.name, seed, tr.spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// latencyAt is the p-quantile of a round's submit-to-result latencies in
// milliseconds. Every query of a batch takes the batch's makespan; a stream
// round too short for the percentile reads 0.
func latencyAt(r *roundResult, p float64) float64 {
	if len(r.latencies) == 1 {
		return r.latencies[0]
	}
	v, err := percentile(r.latencies, p)
	if err != nil {
		return 0
	}
	return v
}

func wallS(r *roundResult) float64 { return r.wall.Seconds() }
func cpuS(r *roundResult) float64  { return r.cpu.Seconds() }

// layerMetrics folds the traced rounds into the per-layer metrics: counts
// from the first round that counted what most rounds did, every timing the
// median over rounds. Shares are of the round's CPU time. README.md says
// which end-to-end metric each of them should move, and on which workload.
func layerMetrics(plain, traced []*roundResult) map[string]metric {
	first := traced[0]
	for _, r := range traced {
		if r.reg.work() == usualWork(traced) {
			first = r
			break
		}
	}
	n := float64(first.attempted)
	reg, lr := first.reg, first.layers
	episodes := float64(max(reg.episodes, 1))
	med := func(f func(*roundResult) float64) float64 { return medianOf(traced, f) }
	share := func(ns func(*roundResult) int64) float64 {
		return med(func(r *roundResult) float64 { return float64(ns(r)) / float64(r.cpu) })
	}
	// ChooseSel runs inside the executor's filter timer, so it is not
	// subtracted a second time.
	unattributed := func(r *roundResult) int64 {
		p := r.layers.pol
		return int64(r.cpu) - r.reg.filterNs - r.reg.buildNs - r.reg.probeNs - r.reg.routeNs - p.joinNs - p.observeNs
	}
	tail := func(samples func(*layerRound) []float64, p float64) float64 {
		return med(func(r *roundResult) float64 {
			v, err := percentile(samples(r.layers), p)
			if err != nil {
				return 0 // a batch round has no such samples
			}
			return v
		})
	}
	submit := func(l *layerRound) []float64 { return l.submitUs }
	per := func(a, b int64) float64 { return float64(a) / float64(max(b, 1)) }

	return map[string]metric{
		"query.compile_ms":             {med(func(r *roundResult) float64 { return ms(r.layers.compile) }), "ms"},
		"exec.context_build_ms":        {med(func(r *roundResult) float64 { return ms(r.layers.build) }), "ms"},
		"exec.scan_tuples_per_query":   {float64(reg.selIn) / n, "count"},
		"exec.filter_pass_ratio":       {per(reg.selOut, reg.selIn), "ratio"},
		"exec.filter_share":            {share(func(r *roundResult) int64 { return r.reg.filterNs }), "ratio"},
		"exec.filter_ns_per_tuple":     {med(func(r *roundResult) float64 { return per(r.reg.filterNs, r.reg.selIn) }), "ns"},
		"exec.route_share":             {share(func(r *roundResult) int64 { return r.reg.routeNs }), "ratio"},
		"exec.routed_tuples_per_query": {float64(reg.routed) / n, "count"},

		"stem.probe_share":       {share(func(r *roundResult) int64 { return r.reg.probeNs }), "ratio"},
		"stem.probes_per_query":  {float64(lr.stemProbes) / n, "count"},
		"stem.matches_per_probe": {per(lr.stemMatches, lr.stemProbes), "ratio"},
		"stem.build_share":       {share(func(r *roundResult) int64 { return r.reg.buildNs }), "ratio"},
		"stem.inserts_per_query": {float64(reg.inserts) / n, "count"},
		"stem.peak_bytes":        {float64(lr.stemPeak), "B"},
		"stem.final_bytes":       {float64(lr.stemFinal), "B"},

		"qlearn.choose_calls_per_episode": {float64(lr.pol.calls()) / episodes, "count"},
		"qlearn.choose_ns_per_call": {med(func(r *roundResult) float64 {
			p := r.layers.pol
			return per(p.selNs+p.joinNs, p.calls())
		}), "ns"},
		"qlearn.observe_ns_per_episode": {med(func(r *roundResult) float64 {
			return per(r.layers.pol.observeNs, r.layers.pol.observes)
		}), "ns"},
		"qlearn.share":         {share(func(r *roundResult) int64 { return r.layers.pol.ns() }), "ratio"},
		"qlearn.q_states":      {float64(lr.qStates), "count"},
		"qlearn.explore_ratio": {per(lr.explores, lr.explores+lr.exploits), "ratio"},

		"engine.episodes_per_query": {float64(reg.episodes) / n, "count"},
		"engine.episode_overhead_us": {med(func(r *roundResult) float64 {
			return float64(unattributed(r)) / 1e3 / float64(max(r.reg.episodes, 1))
		}), "us"},
		"engine.unattributed_share": {share(unattributed), "ratio"},
		"engine.request_self_ms":    {med(func(r *roundResult) float64 { return median(r.layers.requestSelfMs) }), "ms"},
		"engine.submit_p50_us":      {tail(submit, 0.50), "us"},
		"engine.submit_p95_us":      {tail(submit, 0.95), "us"},
		"engine.slot_full_retries":  {float64(lr.fullRetries), "count"},
		"engine.gc_quanta":          {float64(reg.gcQuanta), "count"},
		"engine.close_ms":           {med(func(r *roundResult) float64 { return ms(r.layers.closing) }), "ms"},

		"admission.share": {share(func(r *roundResult) int64 { return r.layers.admissionNs.Load() }), "ratio"},

		// What the engine's user sees, from the untraced rounds, each the
		// median over rounds. They are not end-to-end metrics because they do
		// not repeat from run to run within a third of the 10 % they would be
		// bound by (README.md, "Why the timings are per-layer metrics").
		"engine.goodput_qps":      {medianOf(plain, goodput), "1/s"},
		"engine.retire_p50_ms":    {medianOf(plain, func(r *roundResult) float64 { return latencyAt(r, 0.50) }), "ms"},
		"engine.retire_p95_ms":    {medianOf(plain, func(r *roundResult) float64 { return latencyAt(r, 0.95) }), "ms"},
		"engine.cpu_ms_per_query": {medianOf(plain, func(r *roundResult) float64 { return ms(r.cpu) / float64(r.attempted) }), "ms"},

		"bench.gen_late_p95_ms":      {tail(func(l *layerRound) []float64 { return l.latenessMs }, 0.95), "ms"},
		"bench.round_spread":         {spread(valuesOf(plain, goodput)), "ratio"},
		"bench.trace_overhead_share": {1 - medianOf(traced, goodput)/medianOf(plain, goodput), "ratio"},
	}
}

// writeSpans writes the run's spans, once, after everything was measured.
func writeSpans(dir, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %d spans written to %s\n", len(spans), path)
	return nil
}

// The kernels below run the same fixed, seeded input on every workload and
// every commit. They time one layer's exported entry points in isolation, or,
// for refKernel, no layer at all.

var kernelSink uint64

// refKernel is a pure-Go hash build and probe that touches no engine code,
// in milliseconds. It is run before and after the rounds: it normalises
// nothing, but a slow spell of the host shows in it while an engine change
// cannot.
func refKernel() float64 {
	const n, mask = 1 << 20, 1<<21 - 1
	rng := rand.New(rand.NewSource(42))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() | 1
	}
	t0 := time.Now()
	table := make([]uint64, mask+1)
	slot := func(k uint64) uint64 { return (k * 0x9E3779B97F4A7C15) >> 43 & mask }
	for _, k := range keys {
		i := slot(k)
		for table[i] != 0 {
			i = (i + 1) & mask
		}
		table[i] = k
	}
	var hits uint64
	for round := 0; round < 4; round++ {
		for _, k := range keys {
			i := slot(k ^ uint64(round&1)<<1) // every other round probes keys that are mostly absent
			for table[i] != 0 && table[i] != k {
				i = (i + 1) & mask
			}
			if table[i] == k {
				hits++
			}
		}
	}
	kernelSink += hits
	return ms(time.Since(t0))
}

// stemKernel times stem.InsertVec and stem.ProbeVec per tuple: 64 vectors of
// 1024 tuples over a 16 384-key domain into a fresh STeM, then the same keys
// probed; the median of five repetitions.
func stemKernel() (insertNs, probeNs float64) {
	const vec, vecs, domain, qw = 1024, 64, 1 << 14, 1
	rng := rand.New(rand.NewSource(42))
	keys := make([]int64, vec*vecs)
	vids := make([]int32, len(keys))
	qsets := make([]uint64, len(keys)*qw)
	for i := range keys {
		keys[i] = rng.Int63n(domain)
		vids[i] = int32(i)
		qsets[i] = rng.Uint64() | 1
	}
	var ins, probes []float64
	for rep := 0; rep < 5; rep++ {
		versions := stem.NewVersions()
		s := stem.New(versions, []string{"k"}, 64*qw, len(keys))
		var sc stem.InsertScratch
		t0 := time.Now()
		for v := 0; v < vecs; v++ {
			lo, hi := v*vec, (v+1)*vec
			s.InsertVec(vids[lo:hi], [][]int64{keys[lo:hi]}, qsets[lo*qw:hi*qw], qw, stem.Slot(v), &sc)
			versions.Publish(stem.Slot(v))
		}
		ins = append(ins, float64(time.Since(t0))/float64(len(keys)))

		var (
			dst  []stem.VecMatch
			qbuf []uint64
		)
		wm, ts := versions.Watermark(), versions.Now()
		t0 = time.Now()
		for v := 0; v < vecs; v++ {
			dst, qbuf = s.ProbeVec(dst[:0], qbuf[:0], "k", keys[v*vec:(v+1)*vec], ts, wm)
			kernelSink += uint64(len(dst))
		}
		probes = append(probes, float64(time.Since(t0))/float64(len(keys)))
	}
	return median(ins), median(probes)
}

// admissionKernel times one Admit plus Release on a controller without
// limits, as stream_closed configures it, in nanoseconds per pair.
func admissionKernel() (float64, error) {
	const pairs = 200_000
	c := admission.NewController(admission.Config{})
	tenants := [2]string{"t0", "t1"}
	t0 := time.Now()
	for i := 0; i < pairs; i++ {
		t := tenants[i&1]
		if err := c.Admit(t, 1); err != nil {
			return 0, fmt.Errorf("admission kernel: %w", err)
		}
		c.Release(t, 1)
	}
	return float64(time.Since(t0)) / pairs, nil
}
