package engine

import (
	"math/rand"
	"testing"

	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/job"
	"github.com/roulette-db/roulette/internal/monet"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/qat"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/sharing"
	"github.com/roulette-db/roulette/internal/storage"
	"github.com/roulette-db/roulette/internal/tpcds"
	"github.com/roulette-db/roulette/internal/workload"
)

// runRouLette executes qs on db under the given policy factory, returning
// per-query counts.
func runRouLette(t *testing.T, db *storage.Database, qs []*query.Query, mkPolicy func(*query.Batch) policy.Policy) []int64 {
	t.Helper()
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	opt := exec.DefaultOptions()
	opt.CollectRows = false
	cfg := Config{Exec: opt}
	if mkPolicy != nil {
		cfg.Policy = mkPolicy(b)
	}
	s, err := NewSession(b, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Counts
}

// TestAllEnginesAgreeOnTPCDS is the repository's central cross-engine
// equivalence check: RouLette under four policies, DBMS-V, and the
// MonetDB-style engine must produce identical SPJ counts for a generated
// TPC-DS workload.
func TestAllEnginesAgreeOnTPCDS(t *testing.T) {
	db := tpcds.Generate(0.05, 1)
	p := workload.DefaultParams()
	p.Seed = 7
	qs := workload.NewGenerator(p).Generate(12)

	qatCounts, _, err := qat.New(db).RunSerial(qs)
	if err != nil {
		t.Fatal(err)
	}
	monetCounts, _, err := monet.New(db).RunSerial(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qatCounts {
		if qatCounts[i] != monetCounts[i] {
			t.Fatalf("query %d: qat %d != monet %d", i, qatCounts[i], monetCounts[i])
		}
	}

	check := func(name string, got []int64) {
		for i := range got {
			if got[i] != qatCounts[i] {
				t.Errorf("%s: query %d count %d, qat %d", name, i, got[i], qatCounts[i])
			}
		}
	}

	check("learned", runRouLette(t, db, qs, nil))
	check("greedy", runRouLette(t, db, qs, func(*query.Batch) policy.Policy {
		return policy.NewGreedy()
	}))
	check("stitch&share", runRouLette(t, db, qs, func(b *query.Batch) policy.Policy {
		orders, err := sharing.StitchShareOrders(b, db)
		if err != nil {
			t.Fatal(err)
		}
		return policy.NewStatic(b, orders)
	}))
	check("match&share", runRouLette(t, db, qs, func(b *query.Batch) policy.Policy {
		return policy.NewStatic(b, sharing.MatchShareOrders(b, db))
	}))
}

// TestEnginesAgreeOnJOB repeats the equivalence check on the skewed,
// correlated JOB substrate with deep aliased queries.
func TestEnginesAgreeOnJOB(t *testing.T) {
	if testing.Short() {
		t.Skip("JOB equivalence is slow")
	}
	db := job.Generate(1)
	all := job.Queries(job.NumQueries, 2)
	rng := rand.New(rand.NewSource(3))
	qs := workload.SampleBatch(rng, all, 8)

	qatCounts, _, err := qat.New(db).RunSerial(qs)
	if err != nil {
		t.Fatal(err)
	}
	got := runRouLette(t, db, qs, nil)
	for i := range got {
		if got[i] != qatCounts[i] {
			t.Errorf("JOB query %s: roulette %d, qat %d", qs[i].Tag, got[i], qatCounts[i])
		}
	}
}

// TestSharedBeatsQaaTOnJoinTuples sanity-checks the headline effect: for a
// batch of overlapping queries, executing them together produces fewer
// intermediate join tuples than the sum of solo executions.
func TestSharedBeatsQaaTOnJoinTuples(t *testing.T) {
	db := tpcds.Generate(0.05, 2)
	p := workload.DefaultParams()
	p.Seed = 11
	qs := workload.NewGenerator(p).Generate(16)

	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	opt := exec.DefaultOptions()
	opt.CollectRows = false
	s, err := NewSession(b, db, Config{Exec: opt})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}

	var solo int64
	for _, q := range qs {
		sb, err := query.Compile([]*query.Query{{
			Tag: q.Tag, Rels: q.Rels, Joins: q.Joins, Filters: q.Filters, Agg: q.Agg,
		}})
		if err != nil {
			t.Fatal(err)
		}
		ss, err := NewSession(sb, db, Config{Exec: opt})
		if err != nil {
			t.Fatal(err)
		}
		sr, err := ss.Run()
		if err != nil {
			t.Fatal(err)
		}
		solo += sr.JoinTuples
	}
	if res.JoinTuples >= solo {
		t.Errorf("shared join tuples %d not below query-at-a-time total %d", res.JoinTuples, solo)
	}
	t.Logf("shared=%d solo=%d ratio=%.2fx", res.JoinTuples, solo, float64(solo)/float64(res.JoinTuples))
}
