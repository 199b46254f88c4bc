package bench

import (
	"fmt"
	"math/rand"

	"github.com/roulette-db/roulette/internal/catalog"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
)

// CorrStressResult compares policies on the correlation-stress workload.
type CorrStressResult struct {
	Learned     int64
	Greedy      int64
	StitchSim   int64
	Ratio       float64 // greedy / learned
	RatioStitch float64
}

// buildStressDB constructs the §4.2 motivating scenario as a concrete
// workload: two query groups whose shared join edges have opposite
// conditional selectivities.
//
//	fact(g, fk_a, fk_b, fk_c, fk_d)  ⋈ A(k) ⋈ B(k) ⋈ C(k)|D(k)
//
// Group-A queries filter g < 500; their fact tuples reference the hot key
// range of dimension A (fan-out ~16) and the cold range of B (fan-out ~0.2).
// Group-B queries are the mirror image. A selectivity-global policy sees
// per-edge averages near 8 for both A and B and cannot order them
// correctly for either group; RouLette's learned policy conditions on the
// (lineage, query-set) state and learns each group's contracting-first
// order after the C/D divergence.
func buildStressDB(seed int64) (*storage.Database, []*query.Query) {
	return buildStressData(seed), stressQueries()
}

// buildStressData constructs the correlation-stress substrate alone.
func buildStressData(seed int64) *storage.Database {
	rng := rand.New(rand.NewSource(seed))
	const (
		factRows = 32000
		hotKeys  = 100
		domain   = 2000
		hotDup   = 16
		coldDup  = 1 // cold keys present once per 5 keys (fan-out 0.2)
	)

	fact := catalog.NewRelation("fact", "g", "fk_a", "fk_b", "fk_c", "fk_d")
	dimA := catalog.NewRelation("dim_a", "k", "u")
	dimB := catalog.NewRelation("dim_b", "k", "u")
	dimC := catalog.NewRelation("dim_c", "k", "u")
	dimD := catalog.NewRelation("dim_d", "k", "u")
	sch := catalog.NewSchema(fact, dimA, dimB, dimC, dimD)
	db := storage.NewDatabase(sch)

	// Dimensions A and B: hot keys duplicated hotDup times, one cold key
	// in five present once.
	mkSkewDim := func(rel *catalog.Relation) {
		var keys []int64
		for k := 0; k < hotKeys; k++ {
			for d := 0; d < hotDup; d++ {
				keys = append(keys, int64(k))
			}
		}
		for k := hotKeys; k < domain; k += 5 {
			for d := 0; d < coldDup; d++ {
				keys = append(keys, int64(k))
			}
		}
		t := storage.NewTable(rel, len(keys))
		copy(t.Col("k"), keys)
		u := t.Col("u")
		for i := range u {
			u[i] = int64(rng.Intn(1000))
		}
		db.Put(t)
	}
	mkSkewDim(dimA)
	mkSkewDim(dimB)

	// C and D: selective PK-like dimensions covering 30% of their domain.
	mkSelDim := func(rel *catalog.Relation) {
		n := 600
		t := storage.NewTable(rel, n)
		k := t.Col("k")
		for i := range k {
			k[i] = int64(i) // fact references [0,2000): ~30% match
		}
		u := t.Col("u")
		for i := range u {
			u[i] = int64(rng.Intn(1000))
		}
		db.Put(t)
	}
	mkSelDim(dimC)
	mkSelDim(dimD)

	ft := storage.NewTable(fact, factRows)
	g := ft.Col("g")
	fa := ft.Col("fk_a")
	fb := ft.Col("fk_b")
	fc := ft.Col("fk_c")
	fd := ft.Col("fk_d")
	for i := 0; i < factRows; i++ {
		g[i] = int64(rng.Intn(1000))
		if g[i] < 500 {
			// Group A: A explodes, B contracts.
			fa[i] = int64(rng.Intn(hotKeys))
			fb[i] = int64(hotKeys + rng.Intn(domain-hotKeys))
		} else {
			fa[i] = int64(hotKeys + rng.Intn(domain-hotKeys))
			fb[i] = int64(rng.Intn(hotKeys))
		}
		fc[i] = int64(rng.Intn(domain))
		fd[i] = int64(rng.Intn(domain))
	}
	db.Put(ft)
	return db
}

// stressQueries builds the 16-query correlation-stress workload: two
// templates (group A joins dim_c, group B dim_d) whose filter constants
// slide along the g ranges of their groups on a fixed grid.
func stressQueries() []*query.Query {
	var qs []*query.Query
	for i := 0; i < 16; i++ {
		groupA := i%2 == 0
		q := &query.Query{Tag: fmt.Sprintf("stress-%d", i)}
		q.Rels = []query.RelRef{{Table: "fact"}, {Table: "dim_a"}, {Table: "dim_b"}}
		q.Joins = []query.Join{
			{LeftAlias: "fact", LeftCol: "fk_a", RightAlias: "dim_a", RightCol: "k"},
			{LeftAlias: "fact", LeftCol: "fk_b", RightAlias: "dim_b", RightCol: "k"},
		}
		off := int64(30 * (i / 2))
		if groupA {
			q.Rels = append(q.Rels, query.RelRef{Table: "dim_c"})
			q.Joins = append(q.Joins, query.Join{LeftAlias: "fact", LeftCol: "fk_c", RightAlias: "dim_c", RightCol: "k"})
			q.Filters = append(q.Filters, query.Filter{Alias: "fact", Col: "g", Lo: off, Hi: off + 280})
		} else {
			q.Rels = append(q.Rels, query.RelRef{Table: "dim_d"})
			q.Joins = append(q.Joins, query.Join{LeftAlias: "fact", LeftCol: "fk_d", RightAlias: "dim_d", RightCol: "k"})
			q.Filters = append(q.Filters, query.Filter{Alias: "fact", Col: "g", Lo: 500 + off, Hi: 500 + off + 280})
		}
		qs = append(qs, q)
	}
	return qs
}

// CorrStress runs the correlation-stress comparison (the paper's §4.2
// requirements — long-term effects and correlation awareness — distilled
// into a workload small enough for the policy to converge at laptop scale).
func (c *Config) CorrStress() (*CorrStressResult, error) {
	db, qs := buildStressDB(c.Seed)

	c.printf("=== Correlation stress: learned vs selectivity-greedy ===\n")
	learned, err := joinTuplesVec(db, qs, nil, 0, c.Seed, 32)
	if err != nil {
		return nil, err
	}
	greedy, err := joinTuplesVec(db, qs, mkGreedy, 0, c.Seed, 32)
	if err != nil {
		return nil, err
	}
	_, solo, err := runQaaTAndExtractOrders(db, qs, c.Seed)
	if err != nil {
		return nil, err
	}
	stitch, err := joinTuplesVec(db, qs, stitchSimFactory(solo), 0, c.Seed, 32)
	if err != nil {
		return nil, err
	}

	res := &CorrStressResult{Learned: learned, Greedy: greedy, StitchSim: stitch}
	if learned > 0 {
		res.Ratio = float64(greedy) / float64(learned)
		res.RatioStitch = float64(stitch) / float64(learned)
	}
	c.printf("learned=%d greedy=%d stitchSim=%d | greedy/learned=%.2fx stitchSim/learned=%.2fx\n",
		learned, greedy, stitch, res.Ratio, res.RatioStitch)
	return res, nil
}
