package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/policystore"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
)

// stressRound draws one recurring instance of the stress workload: the
// same two templates, filter offsets drawn fresh inside each group's
// 500-wide band, shuffled submission order (so warm hits cannot come from
// positional accidents), round-stamped tags.
func stressRound(rng *rand.Rand, round int) []*query.Query {
	qs := stressQueries()
	for i, q := range qs {
		f := &q.Filters[0]
		f.Lo = int64(rng.Intn(220))
		if i%2 == 1 { // group B's band starts at 500
			f.Lo += 500
		}
		f.Hi = f.Lo + 280
		q.Tag = fmt.Sprintf("%s-r%d", q.Tag, round)
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// runStressRound executes one batch with a fresh learned policy. With a
// store the policy is warm-started before the run and exported after it,
// the wiring Options.PolicyStore uses. The large vector size keeps rounds
// short (~70 episodes), so a cold learner spends a big share of each round
// still exploring — the regime where persistence pays.
func runStressRound(t *testing.T, db *storage.Database, qs []*query.Query, store *policystore.Cache) *engine.Results {
	t.Helper()
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	opt := exec.DefaultOptions()
	opt.CollectRows = false
	opt.VectorSize = 512
	cfg := qlearn.DefaultConfig()
	cfg.Seed = 1
	pol := qlearn.New(cfg)
	s, err := engine.NewSession(b, db, engine.Config{Exec: opt, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	all := bitset.NewFull(b.N)
	if store != nil {
		store.Import(pol, b, s.Context(), all)
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if store != nil {
		store.Export(pol, b, s.Context(), all)
	}
	return r
}

// TestWarmStartRoutesFewerTuples runs recurring correlation-stress rounds
// cold (fresh policy each round) and warm (fresh policy warm-started from a
// shared PolicyStore): round 1 is identical while the store is still
// empty, answers agree every round, the warm arm hits the cache, and over
// the steady-state rounds it routes fewer tuples than the cold arm.
func TestWarmStartRoutesFewerTuples(t *testing.T) {
	const rounds = 3
	db := buildStressData(1)
	store, err := policystore.Open(policystore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1 + 7177))
	var coldSteady, warmSteady int64
	for r := 0; r < rounds; r++ {
		// Both arms execute the same query values.
		qs := stressRound(rng, r)
		cold := runStressRound(t, db, qs, nil)
		warm := runStressRound(t, db, qs, store)
		for i := range cold.Counts {
			if cold.Counts[i] != warm.Counts[i] {
				t.Errorf("round %d %s: warm count %d != cold count %d",
					r+1, qs[i].Tag, warm.Counts[i], cold.Counts[i])
			}
		}
		if r == 0 {
			if cold.JoinTuples != warm.JoinTuples || cold.Episodes != warm.Episodes {
				t.Fatalf("round 1 diverged with an empty store: cold %d tuples/%d episodes, warm %d/%d",
					cold.JoinTuples, cold.Episodes, warm.JoinTuples, warm.Episodes)
			}
			continue
		}
		coldSteady += cold.JoinTuples
		warmSteady += warm.JoinTuples
	}
	if st := store.Stats(); st.Hits == 0 {
		t.Fatalf("warm arm never hit the policy cache: %+v", st)
	}
	if warmSteady >= coldSteady {
		t.Fatalf("warm start did not reduce routed tuples over rounds 2..%d: warm %d, cold %d",
			rounds, warmSteady, coldSteady)
	}
}
