package roulette

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/roulette-db/roulette/internal/tpcds"
	"github.com/roulette-db/roulette/internal/workload"
)

// TestPinnedSchedule pins the episode order of a one-worker batch: which
// relation each episode scans, in which version slot, for how many active
// queries. The goldens were recorded at the commit that still had a batch-only
// scheduler (f7d1d70), so they are the proof that the tenant-aware selector
// hands out the same vectors in the same order when there is one tenant and no
// lanes. A mismatch prints the observed row; only a deliberate change of the
// scan order (or of the policy's random draws, which move JoinTuples) may
// replace a golden.
func TestPinnedSchedule(t *testing.T) {
	e := NewEngineOn(tpcds.Generate(0.2, 1))
	p := workload.DefaultParams()
	p.Seed = 7
	inner := workload.NewGenerator(p).Generate(12)

	admissions := []Admission{
		{AfterFraction: 0.25, Queries: []int{2, 9}},
		{AfterFraction: 0.6, Queries: []int{5}},
	}
	// The last event asks for more vectors than the largest relation has, so
	// it fires only through the idle-session guard.
	forced := append(admissions[:2:2], Admission{AfterFraction: 1.5, Queries: []int{11}})
	type golden struct {
		episodes, joinTuples int64
		schedule             uint64
	}
	const counts = "[414 389 376 423 401 189 432 404 419 347 416 397]"
	cases := []struct {
		name   string
		policy PolicyKind
		adm    []Admission
		want   golden
	}{
		{"learned", PolicyLearned, nil, golden{episodes: 103, joinTuples: 18917, schedule: 0x18dc8e20bfa070c6}},
		{"learned/admissions", PolicyLearned, admissions, golden{episodes: 171, joinTuples: 19457, schedule: 0xf6ce702d9d72a469}},
		{"greedy", PolicyGreedy, nil, golden{episodes: 103, joinTuples: 16605, schedule: 0x18dc8e20bfa070c6}},
		{"greedy/admissions", PolicyGreedy, admissions, golden{episodes: 171, joinTuples: 17064, schedule: 0xf6ce702d9d72a469}},
		{"random", PolicyRandom, nil, golden{episodes: 103, joinTuples: 20018, schedule: 0x18dc8e20bfa070c6}},
		{"stitchshare", PolicyStitchShare, nil, golden{episodes: 103, joinTuples: 24261, schedule: 0x18dc8e20bfa070c6}},
		{"matchshare", PolicyMatchShare, nil, golden{episodes: 103, joinTuples: 24343, schedule: 0x18dc8e20bfa070c6}},
		{"learned/forced", PolicyLearned, forced, golden{episodes: 224, joinTuples: 19677, schedule: 0x74e7628c2736ea88}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			qs := make([]*Query, len(inner))
			for i, q := range inner {
				qs[i] = &Query{q: *q}
			}
			res, err := e.ExecuteBatch(qs, &Options{
				Policy: c.policy, Workers: 1, VectorSize: 128, Seed: 3,
				Admissions: c.adm, TraceEpisodes: 256,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := golden{episodes: res.Episodes, joinTuples: res.JoinTuples}
			h := fnv.New64a()
			for _, tr := range res.Trace() {
				fmt.Fprintf(h, "%s/%d/%d;", tr.Table, tr.Episode, tr.ActiveQueries)
			}
			got.schedule = h.Sum64()
			if int64(len(res.Trace())) != res.Episodes {
				t.Fatalf("trace holds %d of %d episodes", len(res.Trace()), res.Episodes)
			}
			if got != c.want {
				t.Errorf("schedule moved:\n got  %#v\n want %#v", got, c.want)
			}
			cs := make([]int64, len(res.Queries))
			for i, q := range res.Queries {
				cs[i] = q.Count
			}
			if fmt.Sprint(cs) != counts {
				t.Errorf("counts = %v, want %s", cs, counts)
			}
		})
	}
}
