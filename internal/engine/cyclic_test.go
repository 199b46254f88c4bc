package engine

import (
	"math/rand"
	"testing"

	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/qat"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
)

// triangleDB: fact joins d1 and d2, and d1 joins d2 directly (so queries
// can close the triangle). d1/d2 carry a "link" column over the same small
// domain.
func triangleDB(rng *rand.Rand) *storage.Database {
	db := starDB(rng, 250, 25)
	// Reuse the star schema; d1.a and d2.a act as the cycle columns (domain
	// 0..99 with overlap).
	return db
}

// cyclicQueries close the fact-d1-d2 triangle with d1.a = d2.a.
func cyclicQueries(rng *rand.Rand, n int) []*query.Query {
	var qs []*query.Query
	for i := 0; i < n; i++ {
		q := &query.Query{
			Rels: []query.RelRef{{Table: "fact"}, {Table: "d1"}, {Table: "d2"}},
			Joins: []query.Join{
				{LeftAlias: "fact", LeftCol: "fk1", RightAlias: "d1", RightCol: "k"},
				{LeftAlias: "fact", LeftCol: "fk2", RightAlias: "d2", RightCol: "k"},
				{LeftAlias: "d1", LeftCol: "a", RightAlias: "d2", RightCol: "a"},
			},
		}
		if rng.Intn(2) == 0 {
			lo := int64(rng.Intn(60))
			q.Filters = append(q.Filters, query.Filter{Alias: "fact", Col: "v", Lo: lo, Hi: lo + 30})
		}
		qs = append(qs, q)
	}
	return qs
}

func TestCyclicQueriesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	db := triangleDB(rng)
	qs := cyclicQueries(rng, 8)

	for name, mk := range map[string]func() policy.Policy{
		"learned": func() policy.Policy { return qlearn.New(qlearn.DefaultConfig()) },
		"greedy":  func() policy.Policy { return policy.NewGreedy() },
		"random":  func() policy.Policy { return policy.NewRandom(5) },
	} {
		t.Run(name, func(t *testing.T) {
			b, err := query.Compile(qs)
			if err != nil {
				t.Fatal(err)
			}
			if len(b.Residuals) == 0 {
				t.Fatal("no residuals compiled")
			}
			opt := exec.DefaultOptions()
			opt.VectorSize = 64
			opt.CollectRows = false
			s, err := NewSession(b, db, Config{Exec: opt, Policy: mk()})
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			for qid, q := range qs {
				if want := oracleCount(db, q); res.Counts[qid] != want {
					t.Errorf("query %d: count %d, oracle %d", qid, res.Counts[qid], want)
				}
			}
		})
	}
}

func TestCyclicResidualSurvivesProjections(t *testing.T) {
	// The residual's early endpoint must survive adaptive projections.
	rng := rand.New(rand.NewSource(67))
	db := triangleDB(rng)
	qs := cyclicQueries(rng, 4)
	opt := exec.DefaultOptions()
	opt.VectorSize = 32
	runAndCheck(t, db, qs, Config{Exec: opt})
}

func TestCyclicQatAndMonetAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	db := triangleDB(rng)
	qs := cyclicQueries(rng, 6)
	e := qat.New(db)
	for i, q := range qs {
		got, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleCount(db, q); got != want {
			t.Errorf("qat query %d: %d, oracle %d", i, got, want)
		}
	}
}

func TestCyclicMixedWithTreeQueries(t *testing.T) {
	// Batches mixing cyclic and tree queries share edges; residuals apply
	// only to their owners.
	rng := rand.New(rand.NewSource(73))
	db := triangleDB(rng)
	qs := append(cyclicQueries(rng, 3), starQueries(rng, 5)...)
	opt := exec.DefaultOptions()
	opt.VectorSize = 64
	runAndCheck(t, db, qs, Config{Exec: opt})
}
