// Command benchmark is the repository's one performance benchmark: four
// seeded workloads over the public roulette API, every answer checked, three
// end-to-end metrics per workload, and a traced mode that times the rounds
// and attributes them to the layers (packages) they ran through. README.md
// defines every workload and metric.
//
//	benchmark --workload batch_join --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…, "attempted":…, "failed":…, "metrics":{name:{value,unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// minRounds is the fewest timed rounds a run reports medians over.
const minRounds = 5

// setUps is how many times a run sets the workload up; setup_s is the median.
const setUps = 3

var verbose bool

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: batch_join, batch_scan, stream_closed or stream_paced")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 15, "how long the timed rounds run")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the span file")
	outDir := flag.String("out", "benchmark/out", "directory the traced run writes its span file to")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice in alternation and compare the two sets of end-to-end metrics")
	contract := flag.String("contract", "BENCHMARK.json", "with -selfcheck: the file that lists the workloads, the end-to-end metrics and their bounds")
	flag.BoolVar(&verbose, "v", false, "print one line per round to standard error")
	flag.Parse()

	// One busy thread: on a small shared host a second runnable thread makes
	// wall time depend on what the neighbours do (README, "Why one thread").
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(100)

	if *selfcheck {
		if err := runSelfcheck(*seed, *seconds, *contract); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	sp, ok := specByName(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	var (
		rep *report
		err error
	)
	if *trace != 0 {
		rep, err = runTraced(sp, *seed, *seconds, *outDir)
	} else {
		rep, err = runEndToEnd(sp, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// setUpTimed sets the workload up setUps times and returns the last fixture
// with the median set-up time; the earlier fixtures are dropped before the
// next is built so that peak memory is one fixture's.
func setUpTimed(sp spec, seed int64) (*fixture, float64, error) {
	var (
		fx    *fixture
		times []float64
	)
	for i := 0; i < setUps; i++ {
		fx = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if fx, err = setUp(sp, seed); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return fx, median(times), nil
}

// timed is what timedRounds measured.
type timed struct {
	settle    *roundResult   // the untimed round before the timed ones; its answers are checked like theirs
	rounds    []*roundResult // every timed round, in the order they ran; none is left out
	differing int            // timed rounds that did not count what most of them counted (0 on a batch)
	rssMB     float64        // the process's resident-set high-water mark after the last round
}

// timedRounds runs one untimed round (the first round after the set-ups runs
// on the heap they left behind, and is systematically unlike the rest), then
// timed rounds until seconds have passed, minRounds at least, and applies the
// determinism guard to them.
func timedRounds(fx *fixture, seconds float64, minRounds int, ro roundOptions) (*timed, error) {
	out := &timed{}
	var err error
	if out.settle, err = runRound(fx, ro); err != nil {
		return nil, err
	}
	start := time.Now()
	for len(out.rounds) < minRounds || time.Since(start).Seconds() < seconds {
		r, err := runRound(fx, ro)
		if err != nil {
			return nil, err
		}
		out.rounds = append(out.rounds, r)
		if verbose {
			fmt.Fprintf(os.Stderr, "%s, peak rss so far %.1f MB\n", describe(len(out.rounds)-1, r), peakRSSMB())
		}
	}
	out.rssMB = peakRSSMB()
	out.differing, err = repeats(out.rounds, fx.spec.tolerance())
	if out.differing > 0 && !verbose {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d rounds did not count what the rest counted:\n", out.differing, len(out.rounds))
		for i, r := range out.rounds {
			fmt.Fprintln(os.Stderr, describe(i, r))
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

func describe(i int, r *roundResult) string {
	return fmt.Sprintf("round %d: wall %.3fs cpu %.3fs p50 %.3fms p95 %.3fms failed %d %+v",
		i, r.wall.Seconds(), r.cpu.Seconds(), latencyAt(r, 0.50), latencyAt(r, 0.95), r.failed, r.reg.work())
}

// repeats is the determinism guard: a run is replayable from its seed when
// every timed round counted the same episodes, scanned tuples and join
// tuples. It returns how many rounds did not count what most rounds counted,
// and an error, which ends the run without a report, when one of them is
// further than tolerance from that in any of the three. The batch workloads
// have tolerance 0: one round that differs at all ends the run. README.md
// ("Determinism") says why the streams cannot have that and what they have.
func repeats(rounds []*roundResult, tolerance float64) (differing int, err error) {
	usual := usualWork(rounds)
	off := func(got, want int64) float64 { return math.Abs(float64(got-want)) / float64(want) }
	worst, worstRound := 0.0, 0
	for i, r := range rounds {
		w := r.reg.work()
		if w == usual {
			continue
		}
		differing++
		if d := max(off(w.episodes, usual.episodes), off(w.selIn, usual.selIn), off(w.joinTuples, usual.joinTuples)); d > worst {
			worst, worstRound = d, i
		}
	}
	if worst > tolerance {
		return differing, fmt.Errorf("run is not replayable from its seed: %d of %d rounds did not count the episodes, scanned and join tuples the rest counted, round %d by %.2f %% (allowed: %g %%)",
			differing, len(rounds), worstRound, 100*worst, 100*tolerance)
	}
	return differing, nil
}

// usualWork is what most of the rounds counted, the earliest to get there
// on a tie.
func usualWork(rounds []*roundResult) work {
	var usual work
	seen := make(map[work]int)
	for _, r := range rounds {
		w := r.reg.work()
		if seen[w]++; seen[w] > seen[usual] {
			usual = w
		}
	}
	return usual
}

// endToEnd folds the rounds into the end-to-end metrics. Queries attempted
// and failed are counted over every round that ran, the untimed one too. The
// rounds' timings are not here: README.md ("Why the timings are per-layer
// metrics") has the measurements that put them into the traced run.
func endToEnd(t *timed, setupS float64) *report {
	rep := &report{Attempted: t.settle.attempted, Failed: t.settle.failed}
	for _, r := range t.rounds {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
	}
	rep.Correct = rep.Failed == 0
	rep.Metrics = map[string]metric{
		"setup_s":               {setupS, "s"},
		"served_share":          {float64(rep.Attempted-rep.Failed) / float64(rep.Attempted), "ratio"},
		"join_tuples_per_query": {medianOf(t.rounds, joinTuplesPerQuery), "1"},
	}
	return rep
}

func joinTuplesPerQuery(r *roundResult) float64 {
	return float64(r.reg.joinTuples) / float64(r.attempted)
}

func runEndToEnd(sp spec, seed int64, seconds float64) (*report, error) {
	fx, setupS, err := setUpTimed(sp, seed)
	if err != nil {
		return nil, err
	}
	t, err := timedRounds(fx, seconds, minRounds, roundOptions{})
	if err != nil {
		return nil, err
	}
	return endToEnd(t, setupS), nil
}
