package qat_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/roulette-db/roulette/internal/catalog"
	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/monet"
	"github.com/roulette-db/roulette/internal/qat"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
	"github.com/roulette-db/roulette/internal/value"
)

var colours = []string{"red", "green", "blue", "cyan", "black"}

// typedDB builds fact(fk1?, fk2, v, s?) -> d1(k?, a, s), d2(k, a?): int64,
// dictionary-string and nullable (?) columns. d1.k repeats (about
// d1Rows/keys rows per key) and is sometimes NULL, as is fact.fk1; d2.k is
// unique and does not cover every fact.fk2. fact.s and d1.s share one
// dictionary, so they can be joined.
func typedDB(seed int64, factRows, d1Rows, d2Rows, keys int) *storage.Database {
	rng := rand.New(rand.NewSource(seed))
	colourDict := value.NewDict()
	fact := catalog.NewTypedRelation("fact",
		catalog.Column{Name: "fk1", Nullable: true},
		catalog.Column{Name: "fk2"},
		catalog.Column{Name: "v"},
		catalog.Column{Name: "s", Type: value.String, Nullable: true, Dict: colourDict})
	d1 := catalog.NewTypedRelation("d1",
		catalog.Column{Name: "k", Nullable: true},
		catalog.Column{Name: "a"},
		catalog.Column{Name: "s", Type: value.String, Dict: colourDict})
	d2 := catalog.NewTypedRelation("d2",
		catalog.Column{Name: "k"},
		catalog.Column{Name: "a", Nullable: true})
	db := storage.NewDatabase(catalog.NewSchema(fact, d1, d2))

	orNull := func(v int64, oneIn int) int64 {
		if rng.Intn(oneIn) == 0 {
			return value.NullCode
		}
		return v
	}
	colour := func() int64 { return colourDict.Code(colours[rng.Intn(len(colours))]) }

	cols := make([][]int64, 4)
	for c := range cols {
		cols[c] = make([]int64, factRows)
	}
	for r := 0; r < factRows; r++ {
		cols[0][r] = orNull(int64(rng.Intn(keys)), 15)
		cols[1][r] = int64(rng.Intn(d2Rows + d2Rows/4 + 1))
		cols[2][r] = int64(rng.Intn(100))
		cols[3][r] = orNull(colour(), 6)
	}
	db.Put(storage.MustFromColumns(fact, cols...))

	cols = [][]int64{make([]int64, d1Rows), make([]int64, d1Rows), make([]int64, d1Rows)}
	for r := 0; r < d1Rows; r++ {
		cols[0][r] = orNull(int64(rng.Intn(keys)), 15)
		cols[1][r] = int64(rng.Intn(6))
		cols[2][r] = colour()
	}
	db.Put(storage.MustFromColumns(d1, cols...))

	cols = [][]int64{make([]int64, d2Rows), make([]int64, d2Rows)}
	for r := 0; r < d2Rows; r++ {
		cols[0][r] = int64(r)
		cols[1][r] = orNull(int64(rng.Intn(6)), 5)
	}
	db.Put(storage.MustFromColumns(d2, cols...))
	return db
}

// nestedLoop counts q's result by nested loops, one relation per level in
// q.Rels order, testing each filter (through query.Filter.Match) and each
// join (plain equality, NULL never equal) as soon as its relations are
// bound. It shares nothing with the engines: no plan, no hash table, no
// bound filter.
func nestedLoop(db *storage.Database, q *query.Query) int64 {
	level := map[string]int{}
	tables := make([]*storage.Table, len(q.Rels))
	for i, r := range q.Rels {
		level[r.Table] = i
		tables[i] = db.MustTable(r.Table)
	}
	type filter struct {
		f    *query.Filter
		col  []int64
		dict *value.Dict
	}
	type join struct {
		l, r       int
		lcol, rcol []int64
	}
	filters := make([][]filter, len(q.Rels)) // by the level that binds them
	joins := make([][]join, len(q.Rels))
	for i := range q.Filters {
		f := &q.Filters[i]
		t := tables[level[f.Alias]]
		filters[level[f.Alias]] = append(filters[level[f.Alias]], filter{f, t.Col(f.Col), t.Rel.Column(f.Col).Dict})
	}
	for _, j := range q.Joins {
		l, r := level[j.LeftAlias], level[j.RightAlias]
		joins[max(l, r)] = append(joins[max(l, r)], join{l, r, tables[l].Col(j.LeftCol), tables[r].Col(j.RightCol)})
	}

	pick := make([]int, len(q.Rels))
	var count int64
	var bind func(d int)
	bind = func(d int) {
		if d == len(q.Rels) {
			count++
			return
		}
	rows:
		for r := 0; r < tables[d].NumRows(); r++ {
			pick[d] = r
			for _, f := range filters[d] {
				if !f.f.Match(f.col[r], f.dict) {
					continue rows
				}
			}
			for _, j := range joins[d] {
				if v := j.lcol[pick[j.l]]; v == value.NullCode || v != j.rcol[pick[j.r]] {
					continue rows
				}
			}
			bind(d + 1)
		}
	}
	bind(0)
	return count
}

var (
	joinD1  = query.Join{LeftAlias: "fact", LeftCol: "fk1", RightAlias: "d1", RightCol: "k"}
	joinD2  = query.Join{LeftAlias: "d2", LeftCol: "k", RightAlias: "fact", RightCol: "fk2"}
	closing = query.Join{LeftAlias: "d1", LeftCol: "a", RightAlias: "d2", RightCol: "a"}
	// joinS joins two string columns over their shared dictionary; fact.s
	// is sometimes NULL.
	joinS = query.Join{LeftAlias: "fact", LeftCol: "s", RightAlias: "d1", RightCol: "s"}
)

// spj builds a query over fact and whatever relations the joins name.
func spj(joins []query.Join, filters ...query.Filter) *query.Query {
	q := &query.Query{Rels: []query.RelRef{{Table: "fact"}}, Joins: joins, Filters: filters}
	for _, j := range joins {
		for _, a := range []string{j.LeftAlias, j.RightAlias} {
			if !hasRel(q, a) {
				q.Rels = append(q.Rels, query.RelRef{Table: a})
			}
		}
	}
	return q
}

func hasRel(q *query.Query, table string) bool {
	for _, r := range q.Rels {
		if r.Table == table {
			return true
		}
	}
	return false
}

func strs(alias, col string, lits ...string) query.Filter {
	return query.Filter{Alias: alias, Col: col, Kind: query.KindStrings, Strs: lits}
}

// agree runs q on both baselines, on RouLette and on the oracle.
func agree(t *testing.T, db *storage.Database, q *query.Query) int64 {
	t.Helper()
	want := baselinesAgree(t, db, q)
	got, err := runEngine(db, q)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if got != want {
		t.Errorf("engine = %d, nested loops = %d (%+v)", got, want, q)
	}
	return want
}

// baselinesAgree runs q on both baselines and the oracle.
func baselinesAgree(t *testing.T, db *storage.Database, q *query.Query) int64 {
	t.Helper()
	want := nestedLoop(db, q)
	got, err := qat.New(db).Run(q)
	if err != nil {
		t.Fatalf("qat: %v", err)
	}
	if got != want {
		t.Errorf("qat = %d, nested loops = %d (%+v)", got, want, q)
	}
	if got, err = monet.New(db).Run(q); err != nil {
		t.Fatalf("monet: %v", err)
	}
	if got != want {
		t.Errorf("monet = %d, nested loops = %d (%+v)", got, want, q)
	}
	return want
}

// runEngine counts q on RouLette as a one-query batch under a seeded
// learned policy.
func runEngine(db *storage.Database, q *query.Query) (int64, error) {
	b, err := query.Compile([]*query.Query{q})
	if err != nil {
		return 0, err
	}
	opt := exec.DefaultOptions()
	opt.CollectRows = false
	cfg := qlearn.DefaultConfig()
	cfg.Seed = 1
	s, err := engine.NewSession(b, db, engine.Config{Exec: opt, Policy: qlearn.New(cfg)})
	if err != nil {
		return 0, err
	}
	r, err := s.Run()
	if err != nil {
		return 0, err
	}
	return r.Counts[0], nil
}

func TestBaselinesMatchNestedLoops(t *testing.T) {
	dbs := []struct {
		name string
		db   *storage.Database
	}{
		// Every relation fits one vector.
		{"driver under one vector", typedDB(1, 100, 30, 12, 10)},
		// 2500 = 2 x 1024 + 452 driver rows; the d1 build side spans vectors
		// too, and its ~4 rows per key grow a probe's output past a vector.
		{"driver not a multiple of 1024", typedDB(2, 2500, 1300, 40, 300)},
	}
	cases := []struct {
		name  string
		q     *query.Query
		empty bool // the result must be empty (otherwise it must not be)
	}{
		{"no filter, duplicate and NULL keys on both sides", spj([]query.Join{joinD1}), false},
		{"range on the driver", spj([]query.Join{joinD1}, query.Filter{Alias: "fact", Col: "v", Lo: 20, Hi: 60}), false},
		{"range on the build side", spj([]query.Join{joinD1}, query.Filter{Alias: "d1", Col: "a", Lo: 1, Hi: 3}), false},
		{"two filters on one relation", spj([]query.Join{joinD2},
			query.Filter{Alias: "fact", Col: "v", Lo: 10, Hi: 90}, query.Filter{Alias: "fact", Col: "fk2", Lo: 3, Hi: 1 << 40}), false},
		{"range that would admit NULL", spj([]query.Join{joinD2}, query.Filter{Alias: "d2", Col: "a", Lo: value.NullCode, Hi: 3}), false},
		{"IS NULL on a string column", spj([]query.Join{joinD2}, query.Filter{Alias: "fact", Col: "s", Kind: query.KindIsNull}), false},
		{"IS NOT NULL", spj([]query.Join{joinD2}, query.Filter{Alias: "fact", Col: "s", Kind: query.KindIsNotNull}), false},
		{"IS NULL on the join key", spj([]query.Join{joinD1}, query.Filter{Alias: "fact", Col: "fk1", Kind: query.KindIsNull}), true},
		{"IS NULL on a build-side column", spj([]query.Join{joinD2}, query.Filter{Alias: "d2", Col: "a", Kind: query.KindIsNull}), false},
		{"string equality", spj([]query.Join{joinD1}, strs("d1", "s", "green")), false},
		{"string IN with an unknown literal", spj([]query.Join{joinD1}, strs("fact", "s", "red", "mauve", "blue")), false},
		{"string IN, nothing known", spj([]query.Join{joinD1}, strs("fact", "s", "mauve", "teal")), true},
		{"empty build side", spj([]query.Join{joinD1, joinD2}, query.Filter{Alias: "d1", Col: "a", Lo: 100, Hi: 200}), true},
		{"two joins", spj([]query.Join{joinD1, joinD2}, strs("d1", "s", "red", "cyan")), false},
		{"string join, NULLs on one side", spj([]query.Join{joinS}), false},
		{"string join and a string filter", spj([]query.Join{joinS, joinD2}, strs("d1", "s", "blue", "black")), false},
		{"string join closing a key join", spj([]query.Join{joinD1, joinS}), false},
		{"cycle closed by a residual, NULLs on one side", spj([]query.Join{joinD1, joinD2, closing}), false},
		{"cycle with filters", spj([]query.Join{joinD1, joinD2, closing},
			query.Filter{Alias: "fact", Col: "v", Lo: 0, Hi: 70}, query.Filter{Alias: "d2", Col: "a", Kind: query.KindIsNotNull}), false},
		{"single relation", &query.Query{Rels: []query.RelRef{{Table: "d1"}},
			Filters: []query.Filter{strs("d1", "s", "blue", "black"), {Alias: "d1", Col: "k", Kind: query.KindIsNotNull}}}, false},
	}
	for _, d := range dbs {
		for _, tc := range cases {
			t.Run(d.name+"/"+tc.name, func(t *testing.T) {
				if n := agree(t, d.db, tc.q); (n == 0) != tc.empty {
					t.Errorf("result has %d rows; the case is meant to be empty: %v", n, tc.empty)
				}
			})
		}
		// The engine refuses these when it compiles them; the baselines
		// answer them empty.
		for name, q := range map[string]*query.Query{
			"string filter on an int64 column": spj([]query.Join{joinD1}, strs("fact", "v", "red")),
			"empty driver":                     spj([]query.Join{joinD1}, query.Filter{Alias: "fact", Col: "v", Lo: 5, Hi: 4}),
		} {
			t.Run(d.name+"/"+name, func(t *testing.T) {
				if _, err := runEngine(d.db, q); err == nil {
					t.Error("the engine accepted the query")
				}
				if n := baselinesAgree(t, d.db, q); n != 0 {
					t.Errorf("result has %d rows, want 0", n)
				}
			})
		}
	}

	// The cyclic case's closing edge is a residual, not a second hash join.
	p, err := qat.New(dbs[1].db).Optimize(spj([]query.Join{joinD1, joinD2, closing}))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Order[2].Residuals) != 1 {
		t.Errorf("cyclic plan: %d residuals on the last step, want 1", len(p.Order[2].Residuals))
	}
}

// randomSPJ draws a query over typedDB's schema: a join shape and up to
// three filters of any kind.
func randomSPJ(rng *rand.Rand) *query.Query {
	shapes := [][]query.Join{{joinD1}, {joinD2}, {joinD1, joinD2}, {joinD2, joinD1, closing}, {closing, joinD1, joinD2},
		{joinS}, {joinS, joinD2}, {joinD1, joinS}}
	q := spj(shapes[rng.Intn(len(shapes))])
	menu := []func() query.Filter{
		func() query.Filter {
			lo := rng.Int63n(100)
			return query.Filter{Alias: "fact", Col: "v", Lo: lo, Hi: lo + rng.Int63n(60)}
		},
		func() query.Filter { return query.Filter{Alias: "fact", Col: "fk1", Lo: rng.Int63n(5), Hi: 1 << 50} },
		func() query.Filter { return query.Filter{Alias: "fact", Col: "s", Kind: query.KindIsNull} },
		func() query.Filter { return query.Filter{Alias: "fact", Col: "s", Kind: query.KindIsNotNull} },
		func() query.Filter { return strs("fact", "s", colours[rng.Intn(5)], "mauve", colours[rng.Intn(5)]) },
		func() query.Filter { return strs("d1", "s", colours[rng.Intn(5)]) },
		func() query.Filter {
			lo := rng.Int63n(6)
			return query.Filter{Alias: "d1", Col: "a", Lo: lo, Hi: lo + rng.Int63n(4)}
		},
		func() query.Filter { return query.Filter{Alias: "d1", Col: "k", Kind: query.KindIsNotNull} },
		func() query.Filter { return query.Filter{Alias: "d2", Col: "a", Kind: query.KindIsNull} },
		func() query.Filter { return query.Filter{Alias: "d2", Col: "a", Lo: value.NullCode, Hi: rng.Int63n(6)} },
	}
	for n := rng.Intn(4); n > 0; n-- {
		if f := menu[rng.Intn(len(menu))](); hasRel(q, f.Alias) {
			q.Filters = append(q.Filters, f)
		}
	}
	return q
}

func TestBaselinesMatchNestedLoopsQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// 1100 driver rows: one full vector and a partial one.
		db := typedDB(seed, 1100+rng.Intn(200), 60+rng.Intn(60), 5+rng.Intn(20), 1+rng.Intn(40))
		for i := 0; i < 4; i++ {
			agree(t, db, randomSPJ(rng))
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestUnknownColumnIsAnError: a filter, join or cycle-closing join naming a
// column its relation lacks is reported by Optimize (it used to panic in
// storage.Table.Col), and so by both engines' Run.
func TestUnknownColumnIsAnError(t *testing.T) {
	db := typedDB(3, 50, 20, 10, 8)
	bad := func(j query.Join, left bool) query.Join {
		if left {
			j.LeftCol = "nope"
		} else {
			j.RightCol = "nope"
		}
		return j
	}
	for name, q := range map[string]*query.Query{
		"filter":           spj([]query.Join{joinD1}, query.Filter{Alias: "d1", Col: "nope", Lo: 0, Hi: 1}),
		"filter, IS NULL":  spj([]query.Join{joinD1}, query.Filter{Alias: "fact", Col: "nope", Kind: query.KindIsNull}),
		"join, left side":  spj([]query.Join{bad(joinD1, true)}),
		"join, right side": spj([]query.Join{bad(joinD1, false)}),
		"residual":         spj([]query.Join{joinD1, joinD2, bad(closing, false)}),
	} {
		const want = `has no column "nope"`
		if _, err := qat.New(db).Optimize(q); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Optimize error = %v, want one that %s", name, err, want)
		}
		if _, err := monet.New(db).Run(q); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: monet.Run error = %v, want one that %s", name, err, want)
		}
	}
	_, err := qat.New(db).Optimize(spj([]query.Join{joinD1}, query.Filter{Alias: "d1", Col: "nope"}))
	if want := `qat: relation "d1" has no column "nope"`; err == nil || err.Error() != want {
		t.Errorf("error = %v, want %s", err, want)
	}
}
