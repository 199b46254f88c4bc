package exec

import (
	"math"
	"math/rand"
	"time"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/cost"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/stem"
)

// CalibrateModel fits the cost model's κ/λ constants to this machine by
// micro-benchmarking the three operator classes on synthetic data and
// applying least squares, exactly as §4.3 tunes the paper's constants
// ("we measure execution time in nanoseconds for various input and output
// sizes and apply linear regression"). The returned model replaces the
// paper's Xeon-tuned defaults when plugged into engine.Config.Model.
func CalibrateModel(seed int64) *cost.Model {
	rng := rand.New(rand.NewSource(seed))
	m := cost.Default()

	m.Tune(cost.Selection, calibrateSelection(rng))
	m.Tune(cost.Join, calibrateJoin(rng))
	m.Tune(cost.RoutingSelection, calibrateRouting(rng))
	return m
}

// sizes spans two orders of magnitude of vector sizes.
var calibrationSizes = []int{256, 512, 1024, 2048, 4096}

// minNanos returns the fastest of reps runs of fn, in nanoseconds: host
// interference (a preemption, a GC cycle) only ever adds time, and one
// descheduled run in a mean swings the least-squares fit.
func minNanos(reps int, fn func()) float64 {
	best := math.Inf(1)
	for r := 0; r < reps; r++ {
		start := time.Now()
		fn()
		best = math.Min(best, float64(time.Since(start).Nanoseconds()))
	}
	return best
}

// calibrateSelection times grouped-filter application at varying
// selectivities.
func calibrateSelection(rng *rand.Rand) []cost.Sample {
	const nQueries = 16
	col := make([]int64, 8192)
	for i := range col {
		col[i] = int64(rng.Intn(1000))
	}
	var samples []cost.Sample
	for _, sel := range []int64{100, 400, 800} {
		sc := &query.SelCol{Inst: 0, Col: "c", Queries: bitset.NewFull(nQueries)}
		for qid := 0; qid < nQueries; qid++ {
			sc.Preds = append(sc.Preds, query.Pred{QID: qid, Lo: 0, Hi: sel})
		}
		f := NewGroupedFilter(nQueries, sc, col, nil)
		for _, n := range calibrationSizes {
			rows := make([]int32, n)
			for i := range rows {
				rows[i] = int32(rng.Intn(len(col)))
			}
			vids := make([]int32, n)
			qsets := make([]uint64, n)
			out := 0
			elapsed := minNanos(32768/n, func() {
				copy(vids, rows) // Apply compacts its input in place
				for i := range qsets {
					qsets[i] = (1 << nQueries) - 1
				}
				out = f.Apply(true, vids, qsets, 1)
			})
			samples = append(samples, cost.Sample{NIn: float64(n), NOut: float64(out), Nanos: elapsed})
		}
	}
	return samples
}

// calibrateJoin times the probe kernel episodes run at varying match
// fan-outs: stem.ProbeVecRange reading its vector in place, as the probe
// node passes it, each tuple's key through its vID and its word at offset 1
// of a two-word slab (wider than the one-word range) under the node's mask,
// the build side read as it stands, dst/qbuf warm in every run but the
// first.
func calibrateJoin(rng *rand.Rand) []cost.Sample {
	const keys, all = 1024, 1<<16 - 1
	vids := make([]int32, keys)
	buildKeys := make([]int64, keys)
	qsets := make([]uint64, keys)
	for i := range vids {
		vids[i], buildKeys[i], qsets[i] = int32(i), int64(i), all
	}
	mask := []uint64{all}
	var samples []cost.Sample
	var dst []stem.VecMatch
	var qbuf []uint64
	for _, fanout := range []int{1, 2, 4} {
		versions := stem.NewVersions()
		s := stem.New(versions, []string{"k"}, 16, 0)
		for d := 0; d < fanout; d++ {
			s.InsertVec(vids, [][]int64{buildKeys}, qsets, 1, 0, nil)
		}
		ts := versions.Now()
		for _, n := range calibrationSizes {
			p := stem.Probe{Keys: buildKeys, VIDs: make([]int32, n), Qsets: make([]uint64, 2*n), Stride: 2, Off: 1, Mask: mask}
			for i := range p.VIDs {
				p.VIDs[i] = int32(rng.Intn(keys))
				p.Qsets[2*i], p.Qsets[2*i+1] = rng.Uint64(), all
			}
			elapsed := minNanos(16384/n, func() {
				dst, qbuf, _ = s.ProbeVecRange(dst[:0], qbuf[:0], "k", p, ts, 0, 1)
			})
			samples = append(samples, cost.Sample{NIn: float64(n), NOut: float64(len(dst)), Nanos: elapsed})
		}
	}
	return samples
}

// calibrateRouting times routing selections (mask and compact).
func calibrateRouting(rng *rand.Rand) []cost.Sample {
	var samples []cost.Sample
	for _, keepPct := range []int{25, 50, 90} {
		for _, n := range calibrationSizes {
			baseVids := make([]int32, n)
			baseQ := make([]uint64, n)
			for i := range baseVids {
				baseVids[i] = int32(i)
				if rng.Intn(100) < keepPct {
					baseQ[i] = 3
				}
			}
			vids := make([]int32, n)
			qsets := make([]uint64, n)
			out := 0
			elapsed := minNanos(32768/n, func() {
				copy(vids, baseVids)
				copy(qsets, baseQ)
				v, _ := compact(vids, qsets, 1)
				out = len(v)
			})
			samples = append(samples, cost.Sample{NIn: float64(n), NOut: float64(out), Nanos: elapsed})
		}
	}
	return samples
}
