package engine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/roulette-db/roulette/internal/catalog"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/qat"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
)

// randomSchemaDB builds a random star/snowflake database: one fact with
// 2-4 dimension FKs, each dimension optionally with a sub-dimension, random
// sizes and value columns.
func randomSchemaDB(rng *rand.Rand) (*storage.Database, []string, map[string]string) {
	nDims := 2 + rng.Intn(3)
	factCols := []string{"v"}
	dims := make([]string, nDims)
	subOf := map[string]string{} // dim -> sub-dimension name (if any)
	for d := 0; d < nDims; d++ {
		dims[d] = "d" + string(rune('a'+d))
		factCols = append(factCols, "fk_"+dims[d])
	}
	rels := []*catalog.Relation{catalog.NewRelation("fact", factCols...)}
	for _, d := range dims {
		cols := []string{"k", "v"}
		if rng.Intn(2) == 0 {
			sub := d + "_sub"
			subOf[d] = sub
			cols = append(cols, "fk_sub")
			rels = append(rels, catalog.NewRelation(sub, "k", "v"))
		}
		rels = append(rels, catalog.NewRelation(d, cols...))
	}
	sch := catalog.NewSchema(rels...)
	db := storage.NewDatabase(sch)

	dimRows := 10 + rng.Intn(30)
	subRows := 5 + rng.Intn(15)
	factRows := 100 + rng.Intn(200)

	for _, d := range dims {
		t := storage.NewTable(sch.Relation(d), dimRows)
		for i := 0; i < dimRows; i++ {
			t.Col("k")[i] = int64(i)
			t.Col("v")[i] = int64(rng.Intn(50))
		}
		if sub, ok := subOf[d]; ok {
			st := storage.NewTable(sch.Relation(sub), subRows)
			for i := 0; i < subRows; i++ {
				st.Col("k")[i] = int64(i)
				st.Col("v")[i] = int64(rng.Intn(50))
			}
			db.Put(st)
			fk := t.Col("fk_sub")
			for i := range fk {
				fk[i] = int64(rng.Intn(subRows))
			}
		}
		db.Put(t)
	}
	ft := storage.NewTable(sch.Relation("fact"), factRows)
	ft.Col("v")
	for i := 0; i < factRows; i++ {
		ft.Col("v")[i] = int64(rng.Intn(50))
		for _, d := range dims {
			ft.Col("fk_" + d)[i] = int64(rng.Intn(dimRows))
		}
	}
	db.Put(ft)
	return db, dims, subOf
}

// randomQueryOn draws a random query over the schema: a subset of
// dimensions (optionally their sub-dimensions) and random filters.
func randomQueryOn(rng *rand.Rand, dims []string, subOf map[string]string) *query.Query {
	q := &query.Query{Rels: []query.RelRef{{Table: "fact"}}}
	perm := rng.Perm(len(dims))
	n := 1 + rng.Intn(len(dims))
	for _, di := range perm[:n] {
		d := dims[di]
		q.Rels = append(q.Rels, query.RelRef{Table: d})
		q.Joins = append(q.Joins, query.Join{LeftAlias: "fact", LeftCol: "fk_" + d, RightAlias: d, RightCol: "k"})
		if sub, ok := subOf[d]; ok && rng.Intn(2) == 0 {
			q.Rels = append(q.Rels, query.RelRef{Table: sub})
			q.Joins = append(q.Joins, query.Join{LeftAlias: d, LeftCol: "fk_sub", RightAlias: sub, RightCol: "k"})
		}
	}
	// Random filters on any present relation's v column.
	for _, r := range q.Rels {
		if rng.Intn(3) != 0 {
			continue
		}
		alias := r.Alias
		if alias == "" {
			alias = r.Table
		}
		lo := int64(rng.Intn(40))
		q.Filters = append(q.Filters, query.Filter{Alias: alias, Col: "v", Lo: lo, Hi: lo + int64(rng.Intn(20))})
	}
	// Occasionally close a cycle between two dimensions through their v
	// columns (exercises residual predicates).
	if n >= 2 && rng.Intn(3) == 0 {
		a, b := dims[perm[0]], dims[perm[1]]
		q.Joins = append(q.Joins, query.Join{LeftAlias: a, LeftCol: "v", RightAlias: b, RightCol: "v"})
	}
	return q
}

// TestPropertyEngineMatchesBaselines is the repository's randomized
// correctness property: on random schemas, data, and query batches —
// including self-closing cycles, sub-dimensions and random filters —
// RouLette's shared adaptive execution produces exactly the per-query
// counts of the query-at-a-time engine. The batch's query-ID capacity is
// drawn too, so the same cases run on one-, two- and five-word query sets.
func TestPropertyEngineMatchesBaselines(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db, dims, subOf := randomSchemaDB(rng)
		nQ := 1 + rng.Intn(10)
		qs := make([]*query.Query, nQ)
		for i := range qs {
			qs[i] = randomQueryOn(rng, dims, subOf)
		}
		b := query.NewStreamBatch([]int{nQ, 65, 257}[rng.Intn(3)])
		for _, q := range qs {
			if _, _, err := b.Extend(q); err != nil {
				t.Logf("seed %d: extend: %v", seed, err)
				return false
			}
		}
		opt := exec.DefaultOptions()
		opt.VectorSize = 32 + rng.Intn(100)
		opt.CollectRows = false
		opt.Pruning = rng.Intn(2) == 0
		s, err := NewSession(b, db, Config{Exec: opt, Workers: 1 + rng.Intn(3)})
		if err != nil {
			t.Logf("seed %d (capacity %d): session: %v", seed, b.QCap(), err)
			return false
		}
		res, err := s.Run()
		if err != nil {
			t.Logf("seed %d: run: %v", seed, err)
			return false
		}
		want, _, err := qat.New(db).RunSerial(qs)
		if err != nil {
			t.Logf("seed %d: qat: %v", seed, err)
			return false
		}
		for i := range want {
			if res.Counts[i] != want[i] {
				t.Logf("seed %d (capacity %d): query %d: roulette %d, qat %d", seed, b.QCap(), i, res.Counts[i], want[i])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
