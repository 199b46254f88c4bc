package exec

import (
	"testing"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/qlearn"
)

// stepBenchWarm builds a StepBench and runs it to steady state: enough
// steps for every arena buffer, pool column, match buffer, and Q-table
// entry to reach its final capacity.
func stepBenchWarm(tb testing.TB, cfg StepBenchConfig) *StepBench {
	tb.Helper()
	sb, err := NewStepBench(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		sb.Step()
	}
	return sb
}

// TestEpisodeStepZeroAlloc enforces the PR's core contract: the
// steady-state episode step — ingest, grouped filters, compact, STeM
// probes, routing selections, routers, cost measurement, and the learned
// policy's Q-table update — performs zero heap allocations. The strict
// assertion is relaxed under -race (instrumentation changes escape
// analysis) but the loop still runs there for race coverage.
//
// The partial-final variants add the masked STeM build: the even queries
// are final (EpisodeInput.Final), so tuples carrying only even queries are
// skipped and the rest enter the fact STeM without the even bits. Their
// 32-tuple vectors keep every insert of the run inside the fact STeM's
// first chunk, the state a long episode stream amortizes to.
func TestEpisodeStepZeroAlloc(t *testing.T) {
	evens := func(n int) bitset.Set {
		s := bitset.New(n)
		for q := 0; q < n; q += 2 {
			s.Add(q)
		}
		return s
	}
	for _, tc := range []struct {
		name string
		cfg  StepBenchConfig
	}{
		{"16q-1word", StepBenchConfig{NQueries: 16}},
		{"80q-2words", StepBenchConfig{NQueries: 80}},
		{"16q-partial-final", StepBenchConfig{NQueries: 16, VectorSize: 32, Final: evens(16)}},
		{"80q-partial-final", StepBenchConfig{NQueries: 80, VectorSize: 32, Final: evens(80)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Policy = qlearn.New(qlearn.DefaultConfig())
			sb := stepBenchWarm(t, tc.cfg)
			if rep := sb.Step(); rep.JoinInput == 0 {
				t.Fatal("fixture produces empty episodes; the assertion would be vacuous")
			}
			allocs := testing.AllocsPerRun(50, func() { sb.Step() })
			if tc.cfg.Final != nil {
				checkMaskedBuild(t, sb)
			}
			if raceEnabled {
				t.Skipf("race build: measured %.1f allocs/op, strict assertion skipped", allocs)
			}
			if allocs != 0 {
				t.Errorf("steady-state episode step allocates %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// checkMaskedBuild makes the partial-final guard non-vacuous: the masked
// build inserted some selected tuples and skipped others, and no entry
// carries a final query's bit.
func checkMaskedBuild(t *testing.T, sb *StepBench) {
	t.Helper()
	st := &sb.Ctx.Stats
	if ins, sel := st.Inserted.Load(), st.SelOut.Load(); ins == 0 || ins >= sel {
		t.Errorf("masked build inserted %d of %d selected tuples, want some but not all", ins, sel)
	}
	fs := sb.Ctx.Stems[sb.in.Inst]
	for i := 0; i < fs.Len(); i++ {
		if _, qs := fs.Entry(i); bitset.Intersects(qs, sb.in.Final) || qs.Empty() {
			t.Fatalf("fact entry %d has query set %v; final set %v", i, qs, sb.in.Final)
		}
	}
}

// TestEpisodeStepStatsZeroAlloc extends the zero-allocation contract to the
// observability path: with CollectStats on, the episode step still
// accumulates every counter in the worker arena and folds into
// the shared atomics without allocating.
func TestEpisodeStepStatsZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  StepBenchConfig
	}{
		{"stats-16q", StepBenchConfig{NQueries: 16, CollectStats: true}},
		{"stats-80q", StepBenchConfig{NQueries: 80, CollectStats: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Policy = qlearn.New(qlearn.DefaultConfig())
			sb := stepBenchWarm(t, tc.cfg)
			if rep := sb.Step(); rep.JoinInput == 0 {
				t.Fatal("fixture produces empty episodes; the assertion would be vacuous")
			}
			allocs := testing.AllocsPerRun(50, func() { sb.Step() })

			// The counters must actually move while staying alloc-free.
			st := &sb.Ctx.Stats
			if st.TotalOps() == 0 || st.FilterOps.Load() == 0 || st.ProbeOps.Load() == 0 {
				t.Errorf("stats-on step collected no operator invocations: total=%d", st.TotalOps())
			}
			if st.SharedOps.Load() == 0 {
				t.Error("full-batch fixture should record shared invocations")
			}
			if sb.Ctx.InstStats[sb.in.Inst].Probes.Load() != 0 {
				t.Error("scan instance should not be probed in this fixture")
			}
			var probes int64
			for i := range sb.Ctx.InstStats {
				probes += sb.Ctx.InstStats[i].Probes.Load()
			}
			if probes == 0 {
				t.Error("no per-instance probe traffic recorded")
			}
			if rep := sb.Step(); rep.PlanSig == 0 {
				t.Error("stats-on step reported no plan signature")
			}

			if raceEnabled {
				t.Skipf("race build: measured %.1f allocs/op, strict assertion skipped", allocs)
			}
			if allocs != 0 {
				t.Errorf("stats-on episode step allocates %.1f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestStepBenchMatchesRunEpisodeShape sanity-checks the harness against the
// production path: Step builds nothing (every query is final), while a full
// RunEpisode over the same input with Final = nil, on a fresh slot, plans
// its own selection and join, inserts into the fact STeM, and reports the
// same join input.
func TestStepBenchMatchesRunEpisodeShape(t *testing.T) {
	sb, err := NewStepBench(StepBenchConfig{NQueries: 8, Rows: 512, VectorSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	rep := sb.Step()
	if rep.JoinInput == 0 {
		t.Fatal("step produced no join input")
	}
	if rep.MeasuredCost == 0 {
		t.Fatal("step measured no cost")
	}
	routedBefore := sb.Ctx.Stats.Routed.Load()
	if routedBefore == 0 {
		t.Fatal("step routed no tuples")
	}
	if n := sb.Ctx.Stems[sb.in.Inst].Len(); n != 0 {
		t.Fatalf("Step built %d fact entries, want 0 (every query final)", n)
	}

	in := sb.in
	in.Final = nil
	in.Slot++
	rep2, err := sb.W.RunEpisode(in)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.JoinInput != rep.JoinInput {
		t.Fatalf("RunEpisode join input %d, Step join input %d", rep2.JoinInput, rep.JoinInput)
	}
	if sb.Ctx.Stems[sb.in.Inst].Len() == 0 {
		t.Fatal("RunEpisode did not insert into the fact STeM")
	}
}

// BenchmarkEpisodeStep measures the steady-state episode step; allocs/op
// must report 0 (the zero-alloc test enforces it).
func BenchmarkEpisodeStep(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  StepBenchConfig
	}{
		{"16q-1word", StepBenchConfig{NQueries: 16}},
		{"80q-2words", StepBenchConfig{NQueries: 80}},
		{"16q-stats", StepBenchConfig{NQueries: 16, CollectStats: true}},
		{"80q-stats", StepBenchConfig{NQueries: 80, CollectStats: true}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tc.cfg.Policy = qlearn.New(qlearn.DefaultConfig())
			sb := stepBenchWarm(b, tc.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sb.Step()
			}
		})
	}
}
