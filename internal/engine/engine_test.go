package engine

import (
	"math/rand"
	"testing"

	"github.com/roulette-db/roulette/internal/catalog"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
)

// starDB builds a small star schema: fact(fk1, fk2, v) with dims d1(k, a),
// d2(k, a). Keys are drawn so joins have controlled fan-out.
func starDB(rng *rand.Rand, factRows, dimRows int) *storage.Database {
	fact := catalog.NewRelation("fact", "fk1", "fk2", "v")
	d1 := catalog.NewRelation("d1", "k", "a")
	d2 := catalog.NewRelation("d2", "k", "a")
	sch := catalog.NewSchema(fact, d1, d2)
	sch.AddFK("fact", "fk1", "d1", "k")
	sch.AddFK("fact", "fk2", "d2", "k")
	db := storage.NewDatabase(sch)

	ft := storage.NewTable(fact, factRows)
	for i := 0; i < factRows; i++ {
		ft.Col("fk1")[i] = int64(rng.Intn(dimRows))
		ft.Col("fk2")[i] = int64(rng.Intn(dimRows))
		ft.Col("v")[i] = int64(rng.Intn(100))
	}
	db.Put(ft)
	for _, name := range []string{"d1", "d2"} {
		dt := storage.NewTable(sch.Relation(name), dimRows)
		for i := 0; i < dimRows; i++ {
			dt.Col("k")[i] = int64(i)
			dt.Col("a")[i] = int64(rng.Intn(100))
		}
		db.Put(dt)
	}
	return db
}

func starQueries(rng *rand.Rand, n int) []*query.Query {
	var qs []*query.Query
	for i := 0; i < n; i++ {
		q := &query.Query{
			Rels: []query.RelRef{{Table: "fact"}, {Table: "d1"}},
			Joins: []query.Join{
				{LeftAlias: "fact", LeftCol: "fk1", RightAlias: "d1", RightCol: "k"},
			},
		}
		if rng.Intn(2) == 0 {
			q.Rels = append(q.Rels, query.RelRef{Table: "d2"})
			q.Joins = append(q.Joins, query.Join{LeftAlias: "fact", LeftCol: "fk2", RightAlias: "d2", RightCol: "k"})
		}
		// Random filters.
		if rng.Intn(2) == 0 {
			lo := int64(rng.Intn(80))
			q.Filters = append(q.Filters, query.Filter{Alias: "fact", Col: "v", Lo: lo, Hi: lo + int64(rng.Intn(40))})
		}
		if rng.Intn(2) == 0 {
			lo := int64(rng.Intn(80))
			q.Filters = append(q.Filters, query.Filter{Alias: "d1", Col: "a", Lo: lo, Hi: lo + int64(rng.Intn(60))})
		}
		qs = append(qs, q)
	}
	return qs
}

func runAndCheck(t *testing.T, db *storage.Database, qs []*query.Query, cfg Config) *Results {
	t.Helper()
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(b, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for qid, q := range qs {
		want := oracleCount(db, q)
		if res.Counts[qid] != want {
			t.Errorf("query %d: count = %d, oracle = %d", qid, res.Counts[qid], want)
		}
	}
	return res
}

func TestEngineMatchesOracleLearnedPolicy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := starDB(rng, 300, 40)
	qs := starQueries(rng, 12)
	opt := exec.DefaultOptions()
	opt.VectorSize = 64
	runAndCheck(t, db, qs, Config{Exec: opt})
}

func TestEngineMatchesOracleAllPolicies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := starDB(rng, 200, 30)
	qs := starQueries(rng, 8)
	pols := map[string]func() policy.Policy{
		"learned": func() policy.Policy { return qlearn.New(qlearn.DefaultConfig()) },
		"greedy":  func() policy.Policy { return policy.NewGreedy() },
		"random":  func() policy.Policy { return policy.NewRandom(3) },
	}
	for name, mk := range pols {
		t.Run(name, func(t *testing.T) {
			opt := exec.DefaultOptions()
			opt.VectorSize = 53 // odd size exercises partial vectors
			runAndCheck(t, db, qs, Config{Exec: opt, Policy: mk()})
		})
	}
}

func TestEngineOptimizationTogglesPreserveResults(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	db := starDB(rng, 150, 25)
	qs := starQueries(rng, 6)
	base := exec.DefaultOptions()
	base.VectorSize = 32
	variants := map[string]func(*exec.Options){
		"noPruning":        func(o *exec.Options) { o.Pruning = false },
		"naiveFilters":     func(o *exec.Options) { o.GroupedFilters = false },
		"naiveRouter":      func(o *exec.Options) { o.LocalityRouter = false },
		"allOptimizations": func(o *exec.Options) {},
		"allOff": func(o *exec.Options) {
			o.Pruning, o.GroupedFilters, o.LocalityRouter = false, false, false
		},
	}
	for name, mod := range variants {
		t.Run(name, func(t *testing.T) {
			opt := base
			mod(&opt)
			runAndCheck(t, db, qs, Config{Exec: opt})
		})
	}
}

func TestEngineMultiWorkerMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	db := starDB(rng, 400, 40)
	qs := starQueries(rng, 10)
	for _, workers := range []int{2, 4} {
		opt := exec.DefaultOptions()
		opt.VectorSize = 64
		runAndCheck(t, db, qs, Config{Exec: opt, Workers: workers})
	}
}

func TestEngineDynamicAdmission(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	db := starDB(rng, 300, 30)
	qs := starQueries(rng, 6)
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	// Find the fact instance to trigger admissions on.
	factInst, _ := b.InstOfAlias(0, "fact")
	opt := exec.DefaultOptions()
	opt.VectorSize = 32
	cfg := Config{
		Exec: opt,
		AdmitAt: []AdmitEvent{
			{AfterVectors: 3, Inst: factInst, QIDs: []int{3}},
			{AfterVectors: 6, Inst: factInst, QIDs: []int{4, 5}},
		},
	}
	s, err := NewSession(b, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for qid, q := range qs {
		want := oracleCount(db, q)
		if res.Counts[qid] != want {
			t.Errorf("query %d (admitted late): count = %d, oracle = %d", qid, res.Counts[qid], want)
		}
	}
}

func TestRankScansPutsDimensionsFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := starDB(rng, 500, 20)
	qs := starQueries(rng, 4)
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := exec.NewContext(b, db, exec.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ranks := RankScans(b, ctx)
	factInst, _ := b.InstOfAlias(0, "fact")
	d1Inst, _ := b.InstOfAlias(0, "d1")
	if ranks[d1Inst] >= ranks[factInst] {
		t.Errorf("dimension rank %d should precede fact rank %d", ranks[d1Inst], ranks[factInst])
	}
}

func TestConvergenceTracking(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	db := starDB(rng, 200, 20)
	qs := starQueries(rng, 4)
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	opt := exec.DefaultOptions()
	opt.VectorSize = 32
	opt.CollectRows = false
	s, err := NewSession(b, db, Config{Exec: opt, TrackConvergence: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Convergence) == 0 {
		t.Fatal("no convergence points recorded")
	}
	if int64(len(res.Convergence)) != res.Episodes {
		t.Errorf("convergence points = %d, episodes = %d", len(res.Convergence), res.Episodes)
	}
}

func TestRunReportsElapsedAndEpisodes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	db := starDB(rng, 100, 10)
	qs := starQueries(rng, 3)
	res := runAndCheck(t, db, qs, Config{Exec: exec.DefaultOptions()})
	if res.Elapsed <= 0 {
		t.Error("elapsed should be positive")
	}
	if res.Episodes == 0 {
		t.Error("no episodes ran")
	}
}

// TestLargeBatchOver512Queries exercises multi-word query sets beyond the
// executor's stack-array fast path (regression: qw > 8 panicked in probe).
func TestLargeBatchOver512Queries(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	db := starDB(rng, 600, 40)
	qs := starQueries(rng, 600)
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
	// Spot-check a sample against the oracle (full check would be slow).
	for qid := 0; qid < len(qs); qid += 97 {
		if want := oracleCount(db, qs[qid]); res.Counts[qid] != want {
			t.Errorf("query %d: %d, oracle %d", qid, res.Counts[qid], want)
		}
	}
}

func TestEpisodeTracing(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	db := starDB(rng, 200, 20)
	qs := starQueries(rng, 4)
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	opt := exec.DefaultOptions()
	opt.VectorSize = 32
	opt.CollectRows = false
	s, err := NewSession(b, db, Config{Exec: opt, TraceEpisodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	trace := s.Trace()
	if len(trace) == 0 {
		t.Fatal("no episodes traced")
	}
	want := int(res.Episodes)
	if want > 64 {
		want = 64
	}
	if len(trace) != want {
		t.Errorf("traced %d, want %d", len(trace), want)
	}
	for i, rec := range trace {
		if rec.Input <= 0 || rec.Duration <= 0 || rec.Table == "" || rec.Fault != "" {
			t.Errorf("malformed record %+v", rec)
		}
		if last := res.Episodes - int64(len(trace)) + int64(i); rec.Episode != last {
			t.Errorf("record %d is episode %d, want %d (the last %d, oldest first)", i, rec.Episode, last, len(trace))
		}
	}
}

// TestTraceAnyWorkerCount is the regression test for the recorder the
// engine used to be handed: sized by the caller, a session with more workers
// than rings indexed out of range. The session now builds its own, so any
// Workers value traces.
func TestTraceAnyWorkerCount(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	db := starDB(rng, 400, 20)
	b, err := query.Compile(starQueries(rng, 6))
	if err != nil {
		t.Fatal(err)
	}
	opt := exec.DefaultOptions()
	opt.VectorSize = 16
	s, err := NewSession(b, db, Config{Exec: opt, Workers: 4, TraceEpisodes: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Recorder().Rings(); got != 5 {
		t.Errorf("recorder has %d rings, want one per worker and the control plane's", got)
	}
	trace := s.Trace()
	if res.Episodes < 8 || len(trace) == 0 || len(trace) > 8 {
		t.Fatalf("traced %d of %d episodes, want up to the last 8", len(trace), res.Episodes)
	}
	for i := 1; i < len(trace); i++ {
		if trace[i].Episode <= trace[i-1].Episode {
			t.Errorf("trace not in episode order: %d after %d", trace[i].Episode, trace[i-1].Episode)
		}
	}
}

// TestBatchStatsCollection runs a batch with episode tracing on and checks
// every stats family comes back populated and consistent.
func TestBatchStatsCollection(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	db := starDB(rng, 300, 30)
	qs := starQueries(rng, 8)
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	opt := exec.DefaultOptions()
	opt.VectorSize = 64
	s, err := NewSession(b, db, Config{Exec: opt, TraceEpisodes: 128, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	bs := res.Stats

	if len(bs.Queries) != b.N {
		t.Fatalf("per-query stats: %d entries, want %d", len(bs.Queries), b.N)
	}
	for qid, q := range bs.Queries {
		if q.Episodes == 0 {
			t.Errorf("query %d: no episodes counted", qid)
		}
		if q.Elapsed <= 0 {
			t.Errorf("query %d: elapsed = %v", qid, q.Elapsed)
		}
		if !q.Completed {
			t.Errorf("query %d: not completed in a clean run", qid)
		}
		if q.Tuples != res.Counts[qid] {
			t.Errorf("query %d: tuples %d != count %d", qid, q.Tuples, res.Counts[qid])
		}
	}

	if bs.Probes.Invocations == 0 || bs.Probes.Tuples != res.JoinTuples {
		t.Errorf("probe class: %+v (join tuples %d)", bs.Probes, res.JoinTuples)
	}
	if bs.Builds.Tuples == 0 || bs.Routers.Tuples == 0 {
		t.Errorf("builds %+v / routers %+v recorded no tuples", bs.Builds, bs.Routers)
	}

	if len(bs.Stems) != len(b.Insts) {
		t.Fatalf("stem stats: %d entries, want %d", len(bs.Stems), len(b.Insts))
	}
	// Build rule (DESIGN.md §10): the dimensions are scanned while the fact
	// table is still pending, so they hold entries. How much of the fact
	// table is built depends on which dimension episodes are still in flight
	// under two workers, so it is not asserted here;
	// TestBuildRuleFiresAndStaysExact pins it on one worker. A batch never collects, so every STeM holds exactly
	// what it was sent.
	var inserts, probes, estBytes int64
	for _, ss := range bs.Stems {
		if ss.Table == "" {
			t.Error("stem stats entry without table name")
		}
		if ss.Entries != ss.Inserts {
			t.Errorf("stem %s: %d entries, %d inserts", ss.Table, ss.Entries, ss.Inserts)
		}
		if ss.Table != "fact" && ss.Entries == 0 {
			t.Errorf("dimension STeM %s: no entries after full ingestion", ss.Table)
		}
		inserts += ss.Inserts
		probes += ss.Probes
		estBytes += ss.EstBytes
	}
	if inserts == 0 || probes == 0 || estBytes == 0 {
		t.Errorf("stem traffic: inserts=%d probes=%d bytes=%d", inserts, probes, estBytes)
	}
	if inserts != bs.Builds.Tuples {
		t.Errorf("stem inserts %d != build tuples %d", inserts, bs.Builds.Tuples)
	}

	if bs.Policy.QStates == 0 {
		t.Error("learned policy reported no Q-table states")
	}
	if bs.Policy.Exploits == 0 {
		t.Error("no greedy decisions counted")
	}

	sh := bs.Sharing
	if sh.TotalOps == 0 || sh.SharedOps == 0 || sh.QueriesServed < sh.TotalOps {
		t.Errorf("sharing stats: %+v", sh)
	}
	if f := sh.Factor(); f <= 0 || f > 1 {
		t.Errorf("sharing factor = %v", f)
	}

	// Trace records carry the active query count and the action sequences:
	// one action per operator application the stats counted, since both are
	// read off the same execution log.
	trace := s.Trace()
	if int64(len(trace)) != res.Episodes {
		t.Fatalf("trace holds %d of %d episodes", len(trace), res.Episodes)
	}
	var nSel, nJoin int64
	for _, rec := range trace {
		if rec.ActiveQueries <= 0 {
			t.Errorf("record %d: ActiveQueries = %d", rec.Episode, rec.ActiveQueries)
		}
		if rec.JoinInput > 0 && len(rec.JoinActions) == 0 {
			t.Errorf("record %d: %d tuples entered the join phase, no join actions", rec.Episode, rec.JoinInput)
		}
		nSel += int64(len(rec.SelActions))
		nJoin += int64(len(rec.JoinActions))
	}
	if nSel != bs.Filters.Invocations || nJoin != bs.Probes.Invocations {
		t.Errorf("traced %d selection and %d join actions, stats counted %d filter and %d probe invocations",
			nSel, nJoin, bs.Filters.Invocations, bs.Probes.Invocations)
	}
}

// TestBatchAlwaysCarriesStats pins the counting contract: the executor's
// counters are always on, so a batch run with default options returns a
// populated breakdown.
func TestBatchAlwaysCarriesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	db := starDB(rng, 150, 20)
	qs := starQueries(rng, 4)
	res := runAndCheck(t, db, qs, Config{Exec: exec.DefaultOptions()})
	bs := res.Stats
	if bs == nil {
		t.Fatal("batch returned nil Stats")
	}
	if len(bs.Queries) != len(qs) || bs.Sharing.TotalOps == 0 || bs.Probes.Invocations == 0 {
		t.Errorf("default-options stats not populated: %d queries, sharing %+v, probes %+v",
			len(bs.Queries), bs.Sharing, bs.Probes)
	}
	var probes int64
	for _, ss := range bs.Stems {
		probes += ss.Probes
	}
	if probes == 0 {
		t.Error("no per-STeM probe traffic counted")
	}
}

func TestRankScansEqualSizesProgress(t *testing.T) {
	// All relations equal-sized: the heuristic's tie-breaks must still
	// produce a total ranking (no infinite loop, every rank assigned).
	rng := rand.New(rand.NewSource(53))
	db := starDB(rng, 30, 30) // fact and dims all ~30 rows
	qs := starQueries(rng, 3)
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := exec.NewContext(b, db, exec.DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ranks := RankScans(b, ctx)
	for i, r := range ranks {
		if r < 1 {
			t.Errorf("instance %d unranked", i)
		}
	}
	runAndCheck(t, db, qs, Config{Exec: exec.DefaultOptions()})
}
