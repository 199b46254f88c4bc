package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain puts the tests under the benchmark's own run protocol: one
// thread, so that what a round counts does not depend on the scheduler.
func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(1)
	os.Exit(m.Run())
}

// small shrinks a workload to 20 queries over a 5 000-row fact table.
func small(sp spec) spec {
	sp.scale, sp.queries = 0.25, 20
	sp.rate *= 10 // 20 queries paced 1 ms apart
	return sp
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := make([]float64, 250)
	for i := range samples {
		samples[i] = float64(249 - i) // unsorted on purpose: 249, 248, … 0
	}
	got, err := percentile(samples, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	// ceil(0.95*250) = 238 samples at or below it: the value 237, 12 beyond.
	if got != 237 {
		t.Errorf("p95 of 0..249 = %v, want 237", got)
	}
	if got, err := percentile(samples, 0.50); err != nil || got != 124 {
		t.Errorf("p50 of 0..249 = %v, %v; want 124", got, err)
	}
	// ceil(0.95*199) = 190 at or below it leave 9 beyond: one short. 200 leave 10.
	if _, err := percentile(samples[:199], 0.95); err == nil {
		t.Error("p95 of 199 samples was reported with only 9 samples beyond it")
	}
	if _, err := percentile(samples[:200], 0.95); err != nil {
		t.Errorf("p95 of 200 samples (10 beyond) refused: %v", err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("a percentile of no samples was reported")
	}
}

func TestMedianOfRounds(t *testing.T) {
	if got := median([]float64{3, 100, 1, 2, 4}); got != 3 {
		t.Errorf("median of five rounds, one spoiled = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	rounds := []*roundResult{{wall: 3 * time.Second}, {wall: 50 * time.Second}, {wall: time.Second}}
	if got := medianOf(rounds, wallS); got != 3 {
		t.Errorf("medianOf walls = %v, want 3", got)
	}
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(v, n=4), which
// is what the acceptance check computes.
func TestSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10.5}, 1.0},       // quartiles 2.75, 8.25; median 5.5
		{[]float64{3, 1, 2}, 1.0},                               // quartiles 1, 3; median 2
		{[]float64{10, 11}, (11.25 - 9.75) / 10.5},              // extrapolated, as Python does
		{[]float64{100, 101, 99, 100, 102, 98, 100}, 2.0 / 100}, // quartiles 99, 101
		{[]float64{5}, 0},
	} {
		if got := spread(c.vs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}

func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	plan := schedule{start: start, interval: 10 * time.Millisecond}
	if got := plan.due(25); !got.Equal(start.Add(250 * time.Millisecond)) {
		t.Fatalf("due(25) = %v", got)
	}
	// Request 3 is due at 30 ms. The generator was stalled and sent it at
	// 42 ms; the reply came at 47 ms. The caller waited 17 ms, not 5.
	s := plan.sample(3, start.Add(42*time.Millisecond), start.Add(47*time.Millisecond))
	if s.latency != 17*time.Millisecond || s.lateness != 12*time.Millisecond {
		t.Errorf("late request: latency %v lateness %v, want 17ms and 12ms", s.latency, s.lateness)
	}
	// Sent on time (a timer may fire a hair early): no lateness, never negative.
	s = plan.sample(3, start.Add(30*time.Millisecond-time.Microsecond), start.Add(33*time.Millisecond))
	if s.latency != 3*time.Millisecond || s.lateness != 0 {
		t.Errorf("punctual request: latency %v lateness %v, want 3ms and 0", s.latency, s.lateness)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "round", Start: 0, End: 100, Parent: -1},
		{Name: "query", Start: 10, End: 60, Parent: 0},
		{Name: "engine.submit", Start: 10, End: 15, Parent: 1},
		{Name: "host.consume", Start: 50, End: 58, Parent: 1},
		{Name: "query", Start: 40, End: 90, Parent: 0},         // overlaps the first query
		{Name: "engine.close", Start: 95, End: 120, Parent: 0}, // runs past its parent
	}
	want := []int64{
		100 - 80 - 5, // children cover [10,90] once, and [95,100] of the overrun
		50 - 5 - 8,
		5, 8,
		50,
		25,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestGuardEndsARunThatDoesNotRepeat(t *testing.T) {
	round := func(episodes, joinTuples int64) *roundResult {
		return &roundResult{reg: registry{episodes: episodes, selIn: 1000, joinTuples: joinTuples}}
	}
	same := []*roundResult{round(100, 5000), round(100, 5000), round(100, 5000), round(100, 5000), round(100, 5000)}
	if n, err := repeats(same, 0); n != 0 || err != nil {
		t.Errorf("five identical rounds: %d differ, %v", n, err)
	}
	// One round of five ran 4 % more episodes. A batch may not; a stream may,
	// and the round is counted, not dropped.
	odd := append([]*roundResult{round(104, 5001)}, same[1:]...)
	if _, err := repeats(odd, 0); err == nil {
		t.Error("a batch round that counted other work did not end the run")
	}
	if n, err := repeats(odd, 0.10); n != 1 || err != nil {
		t.Errorf("a stream round 4 %% off: %d differ, %v; want 1 and no error", n, err)
	}
	far := append([]*roundResult{round(100, 6000)}, same[1:]...)
	if _, err := repeats(far, 0.10); err == nil {
		t.Error("a stream round with 20 % more join tuples did not end the run")
	}
}

// TestEndToEndCountsEveryRound pins the correctness gate: a wrong answer in
// any round that ran, the untimed one too, reaches failed and served_share.
func TestEndToEndCountsEveryRound(t *testing.T) {
	round := func(failed int) *roundResult { return &roundResult{attempted: 10, failed: failed} }
	tm := &timed{settle: round(1), rounds: []*roundResult{round(0), round(0), round(2), round(0), round(0)}}
	rep := endToEnd(tm, 1)
	if rep.Attempted != 60 || rep.Failed != 3 || rep.Correct {
		t.Errorf("attempted %d failed %d correct %v, want 60, 3, false", rep.Attempted, rep.Failed, rep.Correct)
	}
	if got := rep.Metrics["served_share"].Value; got != 57.0/60 {
		t.Errorf("served_share = %v, want 0.95", got)
	}
}

// TestWorkloadsSmoke runs 20 queries of every workload on a 5 000-row fact
// table, once through the public API and once through the layers, and wants
// every answer right on both and the same work counted on both.
func TestWorkloadsSmoke(t *testing.T) {
	for _, sp := range specs {
		sp := small(sp)
		t.Run(sp.name, func(t *testing.T) {
			fx, err := setUp(sp, 7)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := runRound(fx, roundOptions{})
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := runRound(fx, roundOptions{tr: tr})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*roundResult{plain, traced} {
				if r.attempted != 20 || r.failed != 0 {
					t.Errorf("served %d of %d queries", r.attempted-r.failed, r.attempted)
				}
			}
			if sp.loop == batchLoop && plain.reg.work() != traced.reg.work() {
				// (On a stream the time slices decide which queries share a scan.)
				t.Errorf("the public path counted %+v, the layers %+v", plain.reg.work(), traced.reg.work())
			}
			if traced.layers == nil || traced.layers.pol.calls() == 0 || len(tr.spans) == 0 {
				t.Error("the traced round recorded no policy calls or no spans")
			}
			other, err := setUp(sp, 8)
			if err != nil {
				t.Fatal(err)
			}
			same := true
			for i := range fx.want {
				same = same && fx.want[i] == other.want[i]
			}
			if same {
				t.Error("seeds 7 and 8 give the same answers")
			}
		})
	}
}

// TestContractNamesWhatTheRunsPrint keeps BENCHMARK.json and the code from
// drifting apart: the workloads are the specs, and an end-to-end and a traced
// run print exactly the metrics the contract lists, in its units.
func TestContractNamesWhatTheRunsPrint(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("contract lists %d workloads, the code has %d", len(c.Workloads), len(specs))
	}
	for i, w := range c.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in the contract, %q in the code", i, w.Name, specs[i].name)
		}
	}
	same := func(kind string, listed []struct{ Name, Unit string }, printed map[string]metric) {
		t.Helper()
		if len(listed) != len(printed) {
			t.Errorf("%s: contract lists %d metrics, the run printed %d", kind, len(listed), len(printed))
		}
		for _, m := range listed {
			got, ok := printed[m.Name]
			if !ok {
				t.Errorf("%s: %s is in the contract but was not printed", kind, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s: %s printed in %q, the contract says %q", kind, m.Name, got.Unit, m.Unit)
			}
		}
	}
	sp, _ := specByName("batch_join")
	rep, err := runEndToEnd(small(sp), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	same("end_to_end", c.EndToEnd, rep.Metrics)

	// (A batch: 20 stream queries are one wave, and a split wave is further
	// from a whole one than the determinism guard lets a round be.)
	rep, err = runTraced(small(sp), 7, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	same("per_layer", c.PerLayer, rep.Metrics)
	if !rep.Correct {
		t.Errorf("traced run: %d of %d queries failed", rep.Failed, rep.Attempted)
	}
}
