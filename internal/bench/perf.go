package bench

import (
	"testing"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/stem"
)

// BenchResult is one microbenchmark measurement, JSON-shaped for BENCH.json.
type BenchResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func toResult(name string, r testing.BenchmarkResult) BenchResult {
	return BenchResult{
		Name:        name,
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// PerfReport is the perf section of BENCH.json: the steady-state episode
// step, the STeM kernels, and the Q-table against its retained string-keyed
// map baseline. Acceptance bar: QTableSpeedup >= 2.
type PerfReport struct {
	EpisodeStep          []BenchResult `json:"episode_step"`
	EpisodeStepZeroAlloc bool          `json:"episode_step_zero_alloc"`
	StemInsertVec        BenchResult   `json:"stem_insert_vec"`
	StemProbeVec         BenchResult   `json:"stem_probe_vec"`
	StemSemiJoinVec      BenchResult   `json:"stem_semijoin_vec"`
	QTable               BenchResult   `json:"qtable_open_addressing"`
	QTableRef            BenchResult   `json:"qtable_map_reference"`
	QTableSpeedup        float64       `json:"qtable_speedup"`
}

// qtableState is one recurring Q-table state for the table microbenchmarks.
type qtableState struct {
	phase   policy.Phase
	inst    query.InstID
	lineage uint64
	q       bitset.Set
	op      int
}

func qtableWorkload() []qtableState {
	pool := []bitset.Set{
		bitset.NewFull(16),
		bitset.NewFull(64),
		bitset.FromIDs(64, 2, 17, 63),
		bitset.NewFull(128),
		bitset.NewFull(200), // overflows the inline key words
		bitset.FromIDs(200, 5, 199),
	}
	states := make([]qtableState, 0, 4096)
	for i := 0; len(states) < cap(states); i++ {
		states = append(states, qtableState{
			phase:   policy.Phase(i % 2),
			inst:    query.InstID(i % 4),
			lineage: uint64(i % 61),
			q:       pool[i%len(pool)],
			op:      i % 7,
		})
	}
	return states
}

// Perf runs the allocation/throughput microbenchmarks and returns the
// machine-readable report. It is the "-fig perf" target of roulette-bench
// and the source of BENCH.json's perf section.
func (c *Config) Perf() (*PerfReport, error) {
	rep := &PerfReport{}

	for _, tc := range []struct {
		name string
		cfg  exec.StepBenchConfig
	}{
		{"episode_step/16q-1word", exec.StepBenchConfig{NQueries: 16}},
		{"episode_step/80q-2words", exec.StepBenchConfig{NQueries: 80}},
	} {
		tc.cfg.Policy = qlearn.New(qlearn.DefaultConfig())
		sb, err := exec.NewStepBench(tc.cfg)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 16; i++ {
			sb.Step()
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sb.Step()
			}
		})
		rep.EpisodeStep = append(rep.EpisodeStep, toResult(tc.name, r))
	}
	rep.EpisodeStepZeroAlloc = true
	for _, r := range rep.EpisodeStep {
		if r.AllocsPerOp != 0 {
			rep.EpisodeStepZeroAlloc = false
		}
	}

	// STeM build path: one op inserts a 256-tuple batch over 32 distinct
	// keys (fact-table FK shape, where batch chain pre-linking collapses the
	// most bucket CASes). The STeM is replaced every few thousand batches —
	// inside the timer — to bound memory and keep chain lengths comparable.
	const (
		insBatch      = 256
		insDomain     = 32
		insResetEvery = 4096
	)
	insVids := make([]int32, insBatch)
	insKeys := make([]int64, insBatch)
	insQsets := make([]uint64, insBatch)
	for i := range insVids {
		insVids[i] = int32(i)
		insKeys[i] = int64(i % insDomain)
		insQsets[i] = ^uint64(0)
	}
	freshInsertStem := func() *stem.STeM {
		return stem.New(stem.NewVersions(), []string{"k"}, 64, insResetEvery*insBatch)
	}
	rep.StemInsertVec = toResult("stem_insert/vec-batch256", testing.Benchmark(func(b *testing.B) {
		s := freshInsertStem()
		var sc stem.InsertScratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%insResetEvery == insResetEvery-1 {
				s = freshInsertStem()
			}
			s.InsertVec(insVids, [][]int64{insKeys}, insQsets, 1, stem.Slot(i&1023), &sc)
		}
	}))

	// STeM probe path: one op probes a 1024-key batch against a unique-key
	// (dimension-table) STeM whose entries span one version slot per
	// 64-tuple episode — the steady state of a long-lived streaming session,
	// where the probe rides the publication watermark.
	const probeEntries = 1 << 16
	pv := stem.NewVersions()
	ps := stem.New(pv, []string{"k"}, 64, probeEntries)
	{
		vids := make([]int32, probeEntries)
		keys := make([]int64, probeEntries)
		qsets := make([]uint64, probeEntries)
		for i := range vids {
			vids[i], keys[i], qsets[i] = int32(i), int64(i), ^uint64(0)
		}
		var sc stem.InsertScratch
		for i := 0; i < probeEntries; i += 64 {
			ps.InsertVec(vids[i:i+64], [][]int64{keys[i : i+64]}, qsets[i:i+64], 1, stem.Slot(i>>6), &sc)
			pv.Publish(stem.Slot(i >> 6))
		}
	}
	probeWM := pv.Watermark()
	probeTS := pv.Now()
	probeKeys := make([]int64, 1024)
	for i := range probeKeys {
		probeKeys[i] = int64((i * 40503) & (probeEntries - 1)) // Fibonacci stride: spread over the domain
	}
	rep.StemProbeVec = toResult("stem_probe/vec-batch1024", testing.Benchmark(func(b *testing.B) {
		var dst []stem.VecMatch
		var qbuf []uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst, qbuf = ps.ProbeVec(dst[:0], qbuf[:0], "k", probeKeys, probeTS, probeWM)
		}
	}))

	// Symmetric-join pruning on the same fixture.
	rep.StemSemiJoinVec = toResult("stem_semijoin/vec-batch1024", testing.Benchmark(func(b *testing.B) {
		outs := make([]uint64, len(probeKeys))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for w := range outs {
				outs[w] = 0
			}
			ps.SemiJoinVec(outs, 1, "k", probeKeys)
		}
	}))

	states := qtableWorkload()
	rep.QTable = toResult("qtable_open_addressing", testing.Benchmark(func(b *testing.B) {
		tbl := qlearn.NewTable()
		for i := range states {
			s := &states[i]
			tbl.Slot(s.phase, s.inst, s.lineage, s.q, s.op).SetValue(float64(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := &states[i%len(states)]
			v := tbl.Get(s.phase, s.inst, s.lineage, s.q, s.op)
			tbl.Slot(s.phase, s.inst, s.lineage, s.q, s.op).SetValue(v + 1)
		}
	}))

	rep.QTableRef = toResult("qtable_map_reference", testing.Benchmark(func(b *testing.B) {
		ref := qlearn.NewRefTable()
		for i := range states {
			s := &states[i]
			ref.Set(s.phase, s.inst, s.lineage, s.q, s.op, float64(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := &states[i%len(states)]
			v := ref.Get(s.phase, s.inst, s.lineage, s.q, s.op)
			ref.Set(s.phase, s.inst, s.lineage, s.q, s.op, v+1)
		}
	}))
	if rep.QTable.NsPerOp > 0 {
		rep.QTableSpeedup = rep.QTableRef.NsPerOp / rep.QTable.NsPerOp
	}

	c.printf("perf: steady-state hot-path microbenchmarks\n")
	c.printf("%-32s %12s %10s %10s\n", "benchmark", "ns/op", "B/op", "allocs/op")
	all := append(append([]BenchResult{}, rep.EpisodeStep...),
		rep.StemInsertVec, rep.StemProbeVec, rep.StemSemiJoinVec, rep.QTable, rep.QTableRef)
	for _, r := range all {
		c.printf("%-32s %12.1f %10d %10d\n", r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	c.printf("qtable speedup over map reference: %.2fx (acceptance: >= 2x)\n", rep.QTableSpeedup)
	if !rep.EpisodeStepZeroAlloc {
		c.printf("WARNING: episode step is no longer allocation-free\n")
	}
	return rep, nil
}
