package exec

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/catalog"
	"github.com/roulette-db/roulette/internal/plan"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/stem"
	"github.com/roulette-db/roulette/internal/storage"
)

// twoTableDB: r(k, v) and s(k, v) with deterministic contents.
//
//	r: k = i%4,  v = i        (12 rows)
//	s: k = i,    v = 10*i     (4 rows)
func twoTableDB() *storage.Database {
	r := catalog.NewRelation("r", "k", "v")
	sRel := catalog.NewRelation("s", "k", "v")
	sch := catalog.NewSchema(r, sRel)
	db := storage.NewDatabase(sch)
	rt := storage.NewTable(r, 12)
	for i := 0; i < 12; i++ {
		rt.Col("k")[i] = int64(i % 4)
		rt.Col("v")[i] = int64(i)
	}
	db.Put(rt)
	st := storage.NewTable(sRel, 4)
	for i := 0; i < 4; i++ {
		st.Col("k")[i] = int64(i)
		st.Col("v")[i] = int64(10 * i)
	}
	db.Put(st)
	return db
}

// joinBatch compiles n identical r⋈s count queries with per-query filters.
func joinBatch(t *testing.T, n int, withFilter bool) *query.Batch {
	t.Helper()
	qs := make([]*query.Query, n)
	for i := range qs {
		q := &query.Query{
			Rels:  []query.RelRef{{Table: "r"}, {Table: "s"}},
			Joins: []query.Join{{LeftAlias: "r", LeftCol: "k", RightAlias: "s", RightCol: "k"}},
		}
		if withFilter {
			q.Filters = []query.Filter{{Alias: "r", Col: "v", Lo: 0, Hi: int64(5 + i)}}
		}
		qs[i] = q
	}
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ingest runs one episode per relation covering all rows.
func ingest(t *testing.T, ctx *Context, w *Worker, b *query.Batch) {
	t.Helper()
	active := bitset.NewFull(b.N)
	for inst := range b.Insts {
		w.RunEpisode(EpisodeInput{
			Inst:   query.InstID(inst),
			N:      ctx.Tables[inst].NumRows(),
			Active: active,
			Slot:   stem.Slot(inst),
			SelOps: ctx.SelOpsFor(query.InstID(inst), nil),
		})
	}
}

func TestRunEpisodeEndToEnd(t *testing.T) {
	db := twoTableDB()
	for _, opts := range []struct {
		name string
		mod  func(*Options)
	}{
		{"defaults", func(*Options) {}},
		{"naiveRouter", func(o *Options) { o.LocalityRouter = false }},
		{"naiveFilters", func(o *Options) { o.GroupedFilters = false }},
	} {
		t.Run(opts.name, func(t *testing.T) {
			b := joinBatch(t, 2, true)
			o := DefaultOptions()
			o.CollectRows = false
			opts.mod(&o)
			ctx, err := NewContext(b, db, o, nil)
			if err != nil {
				t.Fatal(err)
			}
			w := NewWorker(ctx, policy.NewRandom(1))
			ingest(t, ctx, w, b)

			// Query 0 keeps r.v in [0,5] (6 rows), each joining one s row;
			// query 1 keeps [0,6] (7 rows).
			if got := ctx.Sources[0].Count(); got != 6 {
				t.Errorf("q0 count = %d, want 6", got)
			}
			if got := ctx.Sources[1].Count(); got != 7 {
				t.Errorf("q1 count = %d, want 7", got)
			}
			if ctx.Stats.Episodes.Load() != 2 {
				t.Errorf("episodes = %d", ctx.Stats.Episodes.Load())
			}
			if ctx.Stats.JoinOut.Load() == 0 {
				t.Error("no join tuples recorded")
			}
		})
	}
}

// TestEpisodeTakesOneTick runs four episodes over r⋈s and checks that each
// advances the version clock by exactly one tick: an episode that builds
// probes at its insert's stamp, and one that builds nothing (its queries
// all final) probes at a fresh Now that sees every entry recorded before
// it. The full join is counted once per query.
func TestEpisodeTakesOneTick(t *testing.T) {
	db := twoTableDB()
	b := joinBatch(t, 2, false)
	o := DefaultOptions()
	o.CollectRows = false
	ctx, err := NewContext(b, db, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(ctx, policy.NewRandom(1))
	active := bitset.NewFull(b.N)
	const r, s = query.InstID(0), query.InstID(1)
	for i, ep := range []struct {
		inst       query.InstID
		first, n   int32
		final      bitset.Set
		count      int64 // per query after the episode
		rLen, sLen int   // STeM entries after the episode
	}{
		{r, 0, 6, nil, 0, 6, 0},
		{s, 0, 2, nil, 4, 6, 2},      // k 0 and 1 meet r rows 0, 1, 4, 5
		{r, 6, 6, nil, 6, 12, 2},     // r rows 8 and 9 meet s rows 0 and 1
		{s, 2, 2, active, 12, 12, 2}, // builds nothing; k 2 and 3 meet six r rows
	} {
		if _, err := w.RunEpisode(EpisodeInput{
			Inst: ep.inst, First: ep.first, N: int(ep.n), Active: active, Final: ep.final,
			Slot: stem.Slot(i), SelOps: ctx.SelOpsFor(ep.inst, nil),
		}); err != nil {
			t.Fatal(err)
		}
		if got := ctx.Versions.Frontier(); got != int64(i+1) {
			t.Fatalf("episode %d left the clock at %d, want %d", i, got, i+1)
		}
		if rl, sl := ctx.Stems[r].Len(), ctx.Stems[s].Len(); rl != ep.rLen || sl != ep.sLen {
			t.Fatalf("episode %d left %d r and %d s entries, want %d and %d", i, rl, sl, ep.rLen, ep.sLen)
		}
		for qid := 0; qid < b.N; qid++ {
			if got := ctx.Sources[qid].Count(); got != ep.count {
				t.Fatalf("episode %d: query %d count = %d, want %d", i, qid, got, ep.count)
			}
		}
	}
}

func TestRunEpisodeMultiWordQuerySets(t *testing.T) {
	// 70 queries forces two-word query sets (the generic slow path).
	db := twoTableDB()
	b := joinBatch(t, 70, false)
	o := DefaultOptions()
	o.CollectRows = false
	ctx, err := NewContext(b, db, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(ctx, policy.NewRandom(2))
	ingest(t, ctx, w, b)
	for qid := 0; qid < b.N; qid++ {
		if got := ctx.Sources[qid].Count(); got != 12 {
			t.Fatalf("query %d count = %d, want 12 (every r row joins once)", qid, got)
		}
	}
}

func TestEpisodeReportCosts(t *testing.T) {
	db := twoTableDB()
	b := joinBatch(t, 1, true)
	o := DefaultOptions()
	o.CollectRows = false
	ctx, err := NewContext(b, db, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(ctx, policy.NewRandom(3))
	active := bitset.NewFull(1)
	rep, err := w.RunEpisode(EpisodeInput{
		Inst: 0, N: 12,
		Active: active, Slot: 0, SelOps: ctx.SelOpsFor(0, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.JoinInput != 6 { // filter keeps v in [0,5]
		t.Errorf("JoinInput = %d, want 6", rep.JoinInput)
	}
	if rep.MeasuredCost <= 0 || rep.MeasuredJoinCost <= 0 {
		t.Errorf("costs = %v / %v", rep.MeasuredCost, rep.MeasuredJoinCost)
	}
	if rep.MeasuredJoinCost > rep.MeasuredCost {
		t.Error("join cost exceeds total")
	}
}

func TestPruneFilterDropsUnjoinable(t *testing.T) {
	// Ingest s first and mark it prunable; r rows with k=3 must be dropped
	// when s only contains keys 0..2.
	r := catalog.NewRelation("r", "k")
	sRel := catalog.NewRelation("s", "k")
	sch := catalog.NewSchema(r, sRel)
	db := storage.NewDatabase(sch)
	rt := storage.NewTable(r, 8)
	for i := 0; i < 8; i++ {
		rt.Col("k")[i] = int64(i % 4)
	}
	db.Put(rt)
	st := storage.NewTable(sRel, 3)
	for i := 0; i < 3; i++ {
		st.Col("k")[i] = int64(i)
	}
	db.Put(st)

	q := &query.Query{
		Rels:  []query.RelRef{{Table: "r"}, {Table: "s"}},
		Joins: []query.Join{{LeftAlias: "r", LeftCol: "k", RightAlias: "s", RightCol: "k"}},
	}
	b, err := query.Compile([]*query.Query{q})
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.CollectRows = false
	ctx, err := NewContext(b, db, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(ctx, policy.NewRandom(4))
	active := bitset.NewFull(1)

	sInst, _ := b.InstOfAlias(0, "s")
	rInst, _ := b.InstOfAlias(0, "r")
	w.RunEpisode(EpisodeInput{
		Inst: sInst, N: 3, Active: active, Slot: 0,
		SelOps: ctx.SelOpsFor(sInst, nil),
	})
	// r's episode with s prunable: tuples with k=3 pruned before insert.
	elig := bitset.NewFull(1)
	rep, err := w.RunEpisode(EpisodeInput{
		Inst: rInst, N: 8, Active: active, Slot: 1,
		SelOps: ctx.SelOpsFor(rInst, func(int, query.InstID) bitset.Set { return elig }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.JoinInput != 6 { // 8 rows minus the two k=3 rows
		t.Errorf("pruned join input = %d, want 6", rep.JoinInput)
	}
	if got := ctx.Sources[0].Count(); got != 6 {
		t.Errorf("count = %d, want 6", got)
	}
	if ctx.Stems[rInst].Len() != 6 {
		t.Errorf("STeM entries = %d, want 6 (pruning reduces materialization)", ctx.Stems[rInst].Len())
	}
}

func TestCollectedRowsCarryRequiredColumns(t *testing.T) {
	db := twoTableDB()
	q := &query.Query{
		Rels:  []query.RelRef{{Table: "r"}, {Table: "s"}},
		Joins: []query.Join{{LeftAlias: "r", LeftCol: "k", RightAlias: "s", RightCol: "k"}},
		Agg:   query.Agg{Kind: query.AggSum, Alias: "s", Col: "v"},
	}
	b, err := query.Compile([]*query.Query{q})
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	ctx, err := NewContext(b, db, o, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(ctx, policy.NewRandom(5))
	ingest(t, ctx, w, b)

	rows, width := ctx.Sources[0].Rows()
	if width != 1 {
		t.Fatalf("row width = %d, want 1 (only s's vID is required)", width)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	sv := db.MustTable("s").Col("v")
	var sum int64
	for _, vid := range rows {
		sum += sv[vid]
	}
	// Each s key appears 3 times in r: sum = 3*(0+10+20+30).
	if sum != 180 {
		t.Errorf("sum over routed rows = %d, want 180", sum)
	}
}

// TestRouteMatchesPerQueryLoop checks both routers against the loop they
// stand for: each query of the node, in qid order, takes the tuples that
// carry its bit, in tuple order, projected to its source's instances. The
// node's queries span one, two or five words, within a vector whose slab
// starts at or before the node's first word and may reach past its last;
// the sources all collect, all only count, or are mixed. Two vectors route
// through the same worker, so per-query state a route leaves behind shows
// in the second. Each source must end with the loop's count and, when it
// collects, the loop's rows in the loop's order, and the worker's Routed
// count and served queries must match the loop's.
func TestRouteMatchesPerQueryLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	insts := []query.InstID{0, 1, 2}
	for _, qw := range []int{1, 2, 5} {
		for _, locality := range []bool{true, false} {
			for _, mode := range []string{"collect", "count", "mixed"} {
				qcap := 64 * qw
				c := &Context{Opt: Options{LocalityRouter: locality}, Sources: make([]*Source, qcap)}
				wantRows := make([][]int32, qcap)
				wantCount := make([]int64, qcap)
				for qid := range c.Sources {
					var need []query.InstID
					for _, in := range insts {
						if rng.Intn(2) == 0 {
							need = append(need, in)
						}
					}
					collect := mode == "collect" || mode == "mixed" && rng.Intn(2) == 0
					c.Sources[qid] = NewSource(need, collect)
				}
				w := &Worker{C: c, qw: qw, unionBuf: make(bitset.Set, qw), routeQ: make([]routeSlot, 64*qw)}
				var routed, served int64
				for round := 0; round < 2; round++ {
					lo := rng.Intn(qw)
					hi := lo + 1 + rng.Intn(qw-lo)
					nd := &plan.Node{Kind: plan.Router, Q: make(bitset.Set, qw)}
					for wd := lo; wd < hi; wd++ {
						nd.Q[wd] = rng.Uint64() | 1
					}
					nd.Lo, nd.Hi = nd.Q.Span()
					v := &jvec{insts: []query.InstID{2, 0, 1}, n: 300}
					v.lo = rng.Intn(lo + 1)
					v.width = hi - v.lo + rng.Intn(qw-hi+1)
					v.qsets = make([]uint64, v.n*v.width)
					for i := range v.qsets {
						v.qsets[i] = rng.Uint64() & rng.Uint64() & rng.Uint64()
					}
					for i := 0; i < v.n; i += 7 { // tuples with no bit at all
						clear(v.qsets[i*v.width : (i+1)*v.width])
					}
					for range v.insts {
						col := make([]int32, v.n)
						for i := range col {
							col[i] = rng.Int31n(1000)
						}
						v.vids = append(v.vids, col)
					}
					for qid := 64 * lo; qid < 64*hi; qid++ {
						if !nd.Q.Contains(qid) {
							continue
						}
						src, rows := c.Sources[qid], int64(0)
						for i := 0; i < v.n; i++ {
							if !tupleHas(v, i, qid) {
								continue
							}
							rows++
							if src.collect {
								for _, in := range src.Insts {
									wantRows[qid] = append(wantRows[qid], v.vids[v.instIdx(in)][i])
								}
							}
						}
						wantCount[qid] += rows
						routed += rows
						if rows > 0 {
							served++
						}
					}
					w.route(nd, v)
				}
				for qid, src := range c.Sources {
					got, _ := src.Rows()
					if src.Count() != wantCount[qid] || !slices.Equal(got, wantRows[qid]) {
						t.Fatalf("%d words, locality %t, %s: query %d got %d rows %v, want %d rows %v",
							qw, locality, mode, qid, src.Count(), got, wantCount[qid], wantRows[qid])
					}
				}
				if w.ep.routed != routed || w.ep.opQueries != served {
					t.Fatalf("%d words, locality %t, %s: routed %d tuples to %d queries, want %d to %d",
						qw, locality, mode, w.ep.routed, w.ep.opQueries, routed, served)
				}
			}
		}
	}
}

// randomSelInput draws a routing selection over qw-word query sets and the
// vector it reads: the node's queries span random words [lo, hi), the
// vector's slab starts at or before lo and may reach past hi, and its
// three instances' vID columns are random, of which the node keeps a random
// subset. Tuple words are random, one tuple in seven empty, unless keep is
// "none" (no tuple has a bit of the node's queries) or "all" (every tuple
// has one).
func randomSelInput(rng *rand.Rand, qw, n int, keep string) (*plan.Node, *jvec) {
	lo := rng.Intn(qw)
	hi := lo + 1 + rng.Intn(qw-lo)
	nd := &plan.Node{Kind: plan.RouteSel, Q: make(bitset.Set, qw), Keep: uint64(rng.Intn(8))}
	for wd := lo; wd < hi; wd++ {
		nd.Q[wd] = rng.Uint64() | 1
	}
	nd.Lo, nd.Hi = nd.Q.Span()
	v := &jvec{insts: []query.InstID{2, 0, 1}, n: n}
	v.lo = rng.Intn(lo + 1)
	v.width = hi - v.lo + rng.Intn(qw-hi+1)
	v.qsets = make([]uint64, n*v.width)
	for i := 0; i < n; i++ {
		t := v.qsets[i*v.width : (i+1)*v.width]
		for wd := range t {
			t[wd] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			if q := v.lo + wd; keep == "none" && q >= lo && q < hi {
				t[wd] &^= nd.Q[q]
			}
		}
		switch {
		case keep == "all":
			t[lo-v.lo] |= 1
		case keep == "random" && i%7 == 0:
			clear(t)
		}
	}
	for range v.insts {
		col := make([]int32, n)
		for i := range col {
			col[i] = rng.Int31n(1000)
		}
		v.vids = append(v.vids, col)
	}
	return nd, v
}

// TestRouteSelMatchesPerTupleLoop checks routing selections against the
// loop they stand for: each tuple, in order, keeps its words in the node's
// range ANDed with the node's queries and, when a bit is left, is emitted
// with them and with its vIDs in the instances the node keeps. The node's
// queries span one, two or five words of a vector whose slab starts at
// them or before (both must occur); tuples are kept at random, none or
// all. Three selections run
// on one worker, each output going back to its pool, so a reused vector's
// leftovers show in the next.
func TestRouteSelMatchesPerTupleLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var offsets [2]int // selections whose words start at and after the slab's first
	for _, qw := range []int{1, 2, 5} {
		for _, keep := range []string{"random", "none", "all"} {
			w := &Worker{C: &Context{}, qw: qw}
			for round := 0; round < 3; round++ {
				nd, v := randomSelInput(rng, qw, 200+rng.Intn(100), keep)
				lo, hi := nd.Lo, nd.Hi
				offsets[min(lo-v.lo, 1)]++
				var wantInsts []query.InstID
				var wantCols [][]int32
				for _, in := range v.insts {
					if nd.Keep&(1<<in) != 0 {
						wantInsts = append(wantInsts, in)
						wantCols = append(wantCols, []int32{})
					}
				}
				var wantQ []uint64
				kept := 0
				for i := 0; i < v.n; i++ {
					q := make(bitset.Set, hi-lo)
					for wd := range q {
						q[wd] = v.qsets[i*v.width+lo-v.lo+wd] & nd.Q[lo+wd]
					}
					if q.Empty() {
						continue
					}
					kept++
					wantQ = append(wantQ, q...)
					oi := 0
					for vi, in := range v.insts {
						if nd.Keep&(1<<in) != 0 {
							wantCols[oi] = append(wantCols[oi], v.vids[vi][i])
							oi++
						}
					}
				}
				switch {
				case keep == "none" && kept != 0, keep == "all" && kept != v.n:
					t.Fatalf("%d words, keep %s: the input keeps %d of %d tuples", qw, keep, kept, v.n)
				}
				out := w.routeSel(nd, v)
				if out.n != kept || out.lo != lo || out.width != hi-lo || !slices.Equal(out.insts, wantInsts) || len(out.vids) != len(wantCols) {
					t.Fatalf("%d words, keep %s, round %d: got n %d lo %d width %d insts %v, want n %d lo %d width %d insts %v",
						qw, keep, round, out.n, out.lo, out.width, out.insts, kept, lo, hi-lo, wantInsts)
				}
				if !slices.Equal(out.qsets, wantQ) {
					t.Fatalf("%d words, keep %s, round %d: query-set words %x, want %x", qw, keep, round, out.qsets, wantQ)
				}
				for oi, col := range wantCols {
					if !slices.Equal(out.vids[oi], col) {
						t.Fatalf("%d words, keep %s, round %d: instance %d vIDs %v, want %v", qw, keep, round, out.insts[oi], out.vids[oi], col)
					}
				}
				w.pool.put(out)
			}
		}
	}
	if offsets[0] == 0 || offsets[1] == 0 {
		t.Fatalf("%d selections read their words at the slab's start and %d after it; want both", offsets[0], offsets[1])
	}
}

// BenchmarkRouteSel times routing selections of 1024 tuples with one query
// bit each, drawn from a batch of 64 (1word) or 128 (2words) queries, to a
// node holding every other query, so about half the tuples survive, in
// random order; the node keeps two of the vector's three vID columns. Each
// call takes the next of 64 vectors, so that no branch on which tuples
// survive repeats within the predictor's reach.
func BenchmarkRouteSel(b *testing.B) {
	for qw, name := range []string{1: "1word-survive50", 2: "2words-survive50"} {
		if name == "" {
			continue
		}
		b.Run(name, func(b *testing.B) {
			const n, sets = 1024, 64
			rng := rand.New(rand.NewSource(1))
			nd := &plan.Node{Kind: plan.RouteSel, Q: make(bitset.Set, qw), Keep: 1<<0 | 1<<2, Lo: 0, Hi: qw}
			for wd := range nd.Q {
				nd.Q[wd] = 0x5555555555555555
			}
			vs := make([]*jvec, sets)
			for k := range vs {
				v := &jvec{insts: []query.InstID{2, 0, 1}, n: n, width: qw, qsets: make([]uint64, n*qw)}
				for i := 0; i < n; i++ {
					q := rng.Intn(64 * qw)
					v.qsets[i*qw+q/64] = 1 << (q % 64)
				}
				for range v.insts {
					col := make([]int32, n)
					for i := range col {
						col[i] = rng.Int31n(1 << 20)
					}
					v.vids = append(v.vids, col)
				}
				vs[k] = v
			}
			w := &Worker{C: &Context{}, qw: qw}
			kept := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := w.routeSel(nd, vs[i%sets])
				kept += out.n
				w.pool.put(out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/tuple")
			b.ReportMetric(float64(kept)/float64(b.N*n), "kept/tuple")
		})
	}
}
