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

// TestEpisodeStepZeroAlloc enforces the executor's core contract: the
// steady-state episode step — ingest, grouped filters, compact, STeM
// probes, routing selections, routers, cost measurement, the learned
// policy's Q-table update and the stats fold — performs zero heap
// allocations, while every counter the fold publishes actually moves. The
// strict assertion is relaxed under -race (instrumentation changes escape
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
			checkCounters(t, sb)
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

// checkCounters makes the zero-alloc guard cover the stats fold: operator
// invocations, shared invocations, per-instance probe traffic and the plan
// signature all move.
func checkCounters(t *testing.T, sb *StepBench) {
	t.Helper()
	st := &sb.Ctx.Stats
	if st.TotalOps() == 0 || st.FilterOps.Load() == 0 || st.ProbeOps.Load() == 0 {
		t.Errorf("step counted no operator invocations: total=%d", st.TotalOps())
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
		t.Error("step reported no plan signature")
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
	sb.Ctx.Stems[sb.in.Inst].Each(func(vid int32, qs bitset.Set) {
		if bitset.Intersects(qs, sb.in.Final) || qs.Empty() {
			t.Fatalf("fact entry of vID %d has query set %v; final set %v", vid, qs, sb.in.Final)
		}
	})
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
