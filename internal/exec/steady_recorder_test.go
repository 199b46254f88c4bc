package exec

import (
	"math"
	"testing"

	"github.com/roulette-db/roulette/internal/obs"
	"github.com/roulette-db/roulette/internal/qlearn"
)

// TestEpisodeStepRecorderZeroAlloc extends the zero-allocation contract to
// the flight recorder: an episode step bracketed by the events a worker
// records under episode tracing (what engine.runWorker emits per episode:
// start, one action per execution-log entry, the work totals, end) must
// still perform zero heap allocations — neither the always-on recorder of a
// stream nor a traced episode costs the hot path an allocation.
func TestEpisodeStepRecorderZeroAlloc(t *testing.T) {
	cfg := StepBenchConfig{NQueries: 16, Policy: qlearn.New(qlearn.DefaultConfig())}
	sb := stepBenchWarm(t, cfg)
	if rep := sb.Step(); rep.JoinInput == 0 {
		t.Fatal("fixture produces empty episodes; the assertion would be vacuous")
	}
	rec := obs.NewRecorder(2, 1024)
	var vc int64
	rec.SetVClock(func() int64 { vc++; return vc })
	allocs := testing.AllocsPerRun(50, func() {
		rec.Record(0, obs.KEpisodeStart, 0, 1, 0xffff, 16)
		rep := sb.Step()
		for i := range sb.W.log {
			e := &sb.W.log[i]
			rec.Record(0, obs.KAction, int64(e.Phase), int64(e.Op), int64(e.NIn), int64(e.NOut))
		}
		rec.Record(0, obs.KEpisodeWork, 1024, int64(rep.JoinInput), int64(math.Float64bits(rep.MeasuredCost)), 0)
		rec.Record(0, obs.KEpisodeEnd, 0, 1, int64(rep.JoinInput), int64(rep.PlanSig))
	})
	if raceEnabled {
		t.Skipf("race build: measured %.1f allocs/op, strict assertion skipped", allocs)
	}
	if allocs != 0 {
		t.Errorf("episode step with recorder allocates %.1f allocs/op, want 0", allocs)
	}
	eps := rec.Episodes(1)
	if len(eps) != 1 || len(eps[0].SelActions) == 0 || len(eps[0].JoinActions) == 0 {
		t.Fatalf("recorder did not capture a whole episode with its actions (%+v); the assertion would be vacuous", eps)
	}
}
