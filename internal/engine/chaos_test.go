package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/roulette-db/roulette/internal/catalog"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/faults"
	"github.com/roulette-db/roulette/internal/metrics"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/stem"
	"github.com/roulette-db/roulette/internal/storage"
)

// checkSurvivors asserts the chaos invariant: every query the session
// reports as completed matches the oracle exactly, and every uncompleted
// query carries an explanation.
func checkSurvivors(t *testing.T, res *Results, db *storage.Database, qs []*query.Query) (completed int) {
	t.Helper()
	if len(res.Status) != len(qs) {
		t.Fatalf("status entries = %d, want %d", len(res.Status), len(qs))
	}
	for qid, st := range res.Status {
		if st.Completed {
			completed++
			if want := oracleCount(db, qs[qid]); res.Counts[qid] != want {
				t.Errorf("completed query %d: count = %d, oracle = %d", qid, res.Counts[qid], want)
			}
			if st.Err != nil {
				t.Errorf("completed query %d carries error %v", qid, st.Err)
			}
		} else if st.Err == nil {
			t.Errorf("aborted query %d has no error", qid)
		}
	}
	return completed
}

func TestChaosInjectedPanicsIsolateToEpisodes(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	db := starDB(rng, 500, 40)
	qs := starQueries(rng, 12)
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		inj := faults.New(faults.Config{Seed: 7, PanicEvery: 6})
		opt := exec.DefaultOptions()
		opt.VectorSize = 32
		opt.Hooks = inj.Hooks()
		s, err := NewSession(b, db, Config{Exec: opt, Workers: workers, TraceEpisodes: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("workers=%d: a faulted session must not error: %v", workers, err)
		}
		if inj.Panics() == 0 {
			t.Fatalf("workers=%d: no panics injected (rate too low for workload?)", workers)
		}
		if int64(len(res.Faults)) < inj.Panics() {
			t.Errorf("workers=%d: %d faults recorded, %d panics injected", workers, len(res.Faults), inj.Panics())
		}
		if !res.Partial {
			t.Errorf("workers=%d: faulted session should report partial results", workers)
		}
		for _, f := range res.Faults {
			if f.Kind != FaultPanic {
				t.Errorf("workers=%d: fault kind = %v, want panic", workers, f.Kind)
			}
			if _, ok := f.Panic.(faults.InjectedPanic); !ok {
				t.Errorf("workers=%d: recovered value %v (%T), want InjectedPanic", workers, f.Panic, f.Panic)
			}
			if len(f.Queries) == 0 {
				t.Errorf("workers=%d: fault with no affected queries", workers)
			}
			if f.NumVIDs == 0 {
				t.Errorf("workers=%d: fault quarantined an empty vector", workers)
			}
		}
		completed := checkSurvivors(t, res, db, qs)
		if completed == len(qs) {
			t.Errorf("workers=%d: every query completed despite %d panics", workers, inj.Panics())
		}
		traced := 0
		for _, rec := range s.Trace() {
			if rec.FaultKind != 0 {
				traced++
				if rec.Fault != "panic" {
					t.Errorf("workers=%d: episode %d traced fault %q, want panic", workers, rec.Episode, rec.Fault)
				}
			}
		}
		if traced != len(res.Faults) {
			t.Errorf("workers=%d: trace holds %d faulted episodes, session recorded %d", workers, traced, len(res.Faults))
		}
		t.Logf("workers=%d: %d/%d queries survived %d injected panics", workers, completed, len(qs), inj.Panics())
	}
}

func TestChaosInsertFailuresIsolateToEpisodes(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	db := starDB(rng, 400, 30)
	qs := starQueries(rng, 10)
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(faults.Config{Seed: 9, InsertFailEvery: 7})
	opt := exec.DefaultOptions()
	opt.VectorSize = 32
	opt.Hooks = inj.Hooks()
	s, err := NewSession(b, db, Config{Exec: opt, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if inj.InsertFails() == 0 {
		t.Fatal("no insertion failures injected")
	}
	for _, f := range res.Faults {
		if f.Kind != FaultInsert {
			t.Errorf("fault kind = %v, want insert", f.Kind)
		}
		if f.Err == nil {
			t.Error("insert fault without underlying error")
		}
	}
	completed := checkSurvivors(t, res, db, qs)
	t.Logf("%d/%d queries survived %d injected insertion failures", completed, len(qs), inj.InsertFails())
}

func TestChaosMixedFaultsUnderRace(t *testing.T) {
	// The -race CI run drives this with 4 workers, panics and insertion
	// failures at once: surviving queries must still match the oracle.
	rng := rand.New(rand.NewSource(71))
	db := starDB(rng, 600, 40)
	qs := starQueries(rng, 16)
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(faults.Config{Seed: 13, PanicEvery: 9, InsertFailEvery: 11})
	opt := exec.DefaultOptions()
	opt.VectorSize = 48
	opt.Hooks = inj.Hooks()
	s, err := NewSession(b, db, Config{Exec: opt, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if inj.Panics()+inj.InsertFails() == 0 {
		t.Fatal("no faults injected")
	}
	completed := checkSurvivors(t, res, db, qs)
	t.Logf("%d/%d queries survived %d panics + %d insert failures",
		completed, len(qs), inj.Panics(), inj.InsertFails())
}

// TestFaultsFoldIntoRegistryOnce pins the registry's fault accounting: a
// faulted batch moves roulette_episode_faults_total by exactly its number
// of faults, and the by-kind counters sum to the same number.
func TestFaultsFoldIntoRegistryOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	db := starDB(rng, 600, 40)
	qs := starQueries(rng, 12)
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(faults.Config{Seed: 17, PanicEvery: 5, InsertFailEvery: 3})
	opt := exec.DefaultOptions()
	opt.VectorSize = 16
	opt.Hooks = inj.Hooks()
	s, err := NewSession(b, db, Config{Exec: opt, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sumKinds := func(m map[string]int64) (n int64) {
		for _, v := range m {
			n += v
		}
		return n
	}
	before := metrics.Default().Snapshot()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	after := metrics.Default().Snapshot()
	kinds := map[FaultKind]int{}
	for _, f := range res.Faults {
		kinds[f.Kind]++
	}
	if kinds[FaultPanic] == 0 || kinds[FaultInsert] == 0 {
		t.Fatalf("faults by kind = %v, want both panics and insert failures", kinds)
	}
	want := int64(len(res.Faults))
	if got := after.EpisodeFaults - before.EpisodeFaults; got != want {
		t.Errorf("episode_faults moved by %d for a batch with %d faults", got, want)
	}
	if got := sumKinds(after.Faults) - sumKinds(before.Faults); got != want {
		t.Errorf("faults by kind moved by %d for a batch with %d faults", got, want)
	}
}

// islandsDB builds two disjoint join islands — factA⋈dimA and factB⋈dimB —
// so a fault on one island's episodes cannot touch the other's queries.
func islandsDB(rng *rand.Rand, factRows, dimRows int) *storage.Database {
	sch := catalog.NewSchema()
	db := storage.NewDatabase(sch)
	for _, island := range []string{"a", "b"} {
		fact := catalog.NewRelation("fact_"+island, "fk", "v")
		dim := catalog.NewRelation("dim_"+island, "k")
		sch.MustAddRelation(fact)
		sch.MustAddRelation(dim)
		sch.MustAddFK("fact_"+island, "fk", "dim_"+island, "k")
		ft := storage.NewTable(fact, factRows)
		for i := 0; i < factRows; i++ {
			ft.Col("fk")[i] = int64(rng.Intn(dimRows))
			ft.Col("v")[i] = int64(rng.Intn(100))
		}
		db.Put(ft)
		dt := storage.NewTable(dim, dimRows)
		for i := 0; i < dimRows; i++ {
			dt.Col("k")[i] = int64(i)
		}
		db.Put(dt)
	}
	return db
}

func islandQueries(rng *rand.Rand, perIsland int) []*query.Query {
	var qs []*query.Query
	for _, island := range []string{"a", "b"} {
		for i := 0; i < perIsland; i++ {
			lo := int64(rng.Intn(60))
			qs = append(qs, &query.Query{
				Rels:    []query.RelRef{{Table: "fact_" + island}, {Table: "dim_" + island}},
				Joins:   []query.Join{{LeftAlias: "fact_" + island, LeftCol: "fk", RightAlias: "dim_" + island, RightCol: "k"}},
				Filters: []query.Filter{{Alias: "fact_" + island, Col: "v", Lo: lo, Hi: lo + 30}},
			})
		}
	}
	return qs
}

func TestChaosFaultBlastRadiusIsolation(t *testing.T) {
	// Panics on one island's episodes must fail only that island's queries:
	// every fault's affected set stays within the faulted instance's users,
	// and whenever the faults all land on one island, the other island
	// completes exactly.
	rng := rand.New(rand.NewSource(101))
	db := islandsDB(rng, 800, 40)
	qs := islandQueries(rng, 4)
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := faults.Config{Seed: 99, PanicEvery: 30}
	inj := faults.New(cfg)
	opt := exec.DefaultOptions()
	opt.VectorSize = 32
	opt.Hooks = inj.Hooks()
	s, err := NewSession(b, db, Config{Exec: opt}) // 1 worker: deterministic
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if inj.Panics() == 0 {
		t.Fatal("no panics injected")
	}
	usesTable := func(qid int, table string) bool {
		for _, r := range qs[qid].Rels {
			if r.Table == table {
				return true
			}
		}
		return false
	}
	for _, f := range res.Faults {
		table := b.Insts[f.Inst].Table
		for _, qid := range f.Queries {
			if !usesTable(b.Pos(qid), table) {
				t.Errorf("fault on %s affected query %d, which never touches that table", table, qid)
			}
		}
	}
	completed := checkSurvivors(t, res, db, qs)
	if completed == 0 {
		t.Errorf("no queries survived %d panics across two disjoint islands", inj.Panics())
	}
	t.Logf("%d/%d queries survived %d injected panics (%d faults recorded)",
		completed, len(qs), inj.Panics(), len(res.Faults))
}

func TestRunContextCancelReturnsPartialResults(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	db := starDB(rng, 4000, 50)
	qs := starQueries(rng, 8)
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var episodes atomic.Int64
	opt := exec.DefaultOptions()
	opt.VectorSize = 16
	opt.CollectRows = false
	opt.Hooks.EpisodeStart = func(query.InstID, stem.Slot) {
		if episodes.Add(1) == 5 {
			cancel()
		}
	}
	s, err := NewSession(b, db, Config{Exec: opt, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	res, err := s.RunContext(ctx)
	if err != nil {
		t.Fatalf("cancellation must not be an error: %v", err)
	}
	if !res.Partial {
		t.Error("cancelled mid-run: results should be partial")
	}
	if res.Episodes >= int64(4000/16) {
		t.Errorf("ran %d episodes after cancelling at 5 (fact alone has %d vectors)", res.Episodes, 4000/16)
	}
	aborted := 0
	for qid, st := range res.Status {
		if st.Completed {
			continue
		}
		aborted++
		if !errors.Is(st.Err, context.Canceled) {
			t.Errorf("query %d: err = %v, want context.Canceled", qid, st.Err)
		}
	}
	if aborted == 0 {
		t.Error("no queries aborted by cancellation")
	}
	// Workers must have exited; allow the runtime a moment to reap them.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Errorf("goroutines after run = %d, before = %d (leak?)", g, before)
	}
}

func TestSessionDeadlineCancelsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	db := starDB(rng, 2000, 40)
	qs := starQueries(rng, 6)
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(faults.Config{Seed: 3, SlowEvery: 1, SlowDelay: 2 * time.Millisecond})
	opt := exec.DefaultOptions()
	opt.VectorSize = 16
	opt.CollectRows = false
	opt.Hooks = inj.Hooks()
	s, err := NewSession(b, db, Config{Exec: opt})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	res, err := s.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("deadline run should be partial (every episode sleeps 2ms, >125 episodes pending)")
	}
	for qid, st := range res.Status {
		if !st.Completed && !errors.Is(st.Err, context.DeadlineExceeded) {
			t.Errorf("query %d: err = %v, want context.DeadlineExceeded", qid, st.Err)
		}
	}
}

// TestEpisodeFaultsOnce pins one fault record for an episode that fails,
// whether its StemInsert returns an error or panics: slot 0 carries exactly
// one fault of that kind, recorded once in Results.Faults, in the trace and
// in the registry, and every query the episode carried fails rather than
// retire as completed over a half-inserted vector.
func TestEpisodeFaultsOnce(t *testing.T) {
	for _, tc := range []struct {
		name string
		want FaultKind
	}{
		{"insert", FaultInsert},
		{"panic", FaultPanic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(83))
			db := starDB(rng, 300, 30)
			b, err := query.Compile(starQueries(rng, 4))
			if err != nil {
				t.Fatal(err)
			}
			opt := exec.DefaultOptions()
			opt.VectorSize = 16
			opt.CollectRows = false
			opt.Hooks.StemInsert = func(_ query.InstID, slot stem.Slot) error {
				if slot != 0 {
					return nil
				}
				if tc.want == FaultPanic {
					panic("injected insert panic")
				}
				return errors.New("injected insert failure")
			}
			s, err := NewSession(b, db, Config{Exec: opt, Workers: 1, TraceEpisodes: 1 << 12})
			if err != nil {
				t.Fatal(err)
			}
			before := metrics.Default().Snapshot()
			res, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			after := metrics.Default().Snapshot()
			var slot0 []EpisodeError
			for _, f := range res.Faults {
				if f.Slot == 0 {
					slot0 = append(slot0, f)
				}
			}
			if len(slot0) != 1 || slot0[0].Kind != tc.want {
				t.Fatalf("slot 0 faults = %v, want one %v", slot0, tc.want)
			}
			if got, want := after.EpisodeFaults-before.EpisodeFaults, int64(len(res.Faults)); got != want {
				t.Errorf("episode_faults moved by %d for a session with %d faults", got, want)
			}
			if len(slot0[0].Queries) == 0 {
				t.Fatal("slot 0's episode carried no queries")
			}
			for _, qid := range slot0[0].Queries {
				if st := res.Status[b.Pos(qid)]; st.Completed || st.Err == nil {
					t.Errorf("query %d of the faulted episode: completed=%v err=%v, want failed", qid, st.Completed, st.Err)
				}
			}
			traced := false
			for _, rec := range s.Trace() {
				if rec.Episode == 0 {
					traced = true
					if rec.Fault != tc.want.String() {
						t.Errorf("episode 0 traced fault %q, want %v", rec.Fault, tc.want)
					}
				}
			}
			if !traced {
				t.Error("episode 0 missing from the trace")
			}
		})
	}
}

// TestSlowEpisodesNeitherFaultNorCancel pins that slowness alone is not a
// fault: a run whose every 8th episode sleeps records no fault, is not
// partial, and completes every query with its exact count. Only a context
// deadline bounds a run (TestSessionDeadlineCancelsRun).
func TestSlowEpisodesNeitherFaultNorCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	db := starDB(rng, 600, 30)
	qs := starQueries(rng, 6)
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(faults.Config{Seed: 11, SlowEvery: 8, SlowDelay: 5 * time.Millisecond})
	opt := exec.DefaultOptions()
	opt.VectorSize = 16
	opt.CollectRows = false
	opt.Hooks = inj.Hooks()
	s, err := NewSession(b, db, Config{Exec: opt, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if inj.Slows() == 0 {
		t.Fatal("no slow episodes injected")
	}
	if len(res.Faults) != 0 || res.Partial {
		t.Fatalf("faults = %v, partial = %v after slow episodes, want none and a full run", res.Faults, res.Partial)
	}
	if completed := checkSurvivors(t, res, db, qs); completed != len(qs) {
		t.Errorf("%d/%d queries completed after %d slow episodes", completed, len(qs), inj.Slows())
	}
}

func TestRunTwiceReturnsError(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	db := starDB(rng, 100, 10)
	qs := starQueries(rng, 3)
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(b, db, Config{Exec: exec.DefaultOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("second Run must fail instead of returning bogus zero results")
	}
}

func TestForcedAdmissionFiresWhenTriggerIdle(t *testing.T) {
	// Satellite: a pending AdmitEvent whose trigger instance goes idle
	// (AfterVectors beyond what the scan will ever deliver for the
	// initially admitted queries) must still force-fire, and the late
	// queries must run to completion with exact results.
	rng := rand.New(rand.NewSource(97))
	db := starDB(rng, 300, 30)
	qs := starQueries(rng, 6)
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	factInst, _ := b.InstOfAlias(0, "fact")
	opt := exec.DefaultOptions()
	opt.VectorSize = 32
	s, err := NewSession(b, db, Config{Exec: opt, AdmitAt: []AdmitEvent{
		{AfterVectors: 1 << 40, Inst: factInst, QIDs: []int{4, 5}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatal("forced admission should complete every query")
	}
	for qid, q := range qs {
		if !res.Status[qid].Completed {
			t.Errorf("query %d not completed", qid)
		}
		if want := oracleCount(db, q); res.Counts[qid] != want {
			t.Errorf("query %d: count = %d, oracle = %d", qid, res.Counts[qid], want)
		}
	}
}

// TestParkedBatchWorkersExitOnCancel covers what the one worker loop made
// new for batches: a worker that finds no runnable scan waits on the condvar
// for its peers' episodes instead of returning. Eight workers share a
// relation of two vectors and the hook holds both episodes open, so six
// workers have nothing to pick. A cancelled run must return as soon as the
// held episodes are let go — also when they then fault, which is what makes
// the results partial — and leave no worker behind.
func TestParkedBatchWorkersExitOnCancel(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		name := "clean"
		if faulty {
			name = "faulted"
		}
		t.Run(name, func(t *testing.T) {
			db := starDB(rand.New(rand.NewSource(5)), 64, 32)
			b, err := query.Compile([]*query.Query{singleRel("d1"), singleRel("d1")})
			if err != nil {
				t.Fatal(err)
			}
			started := make(chan struct{}, 2) // one send per vector of d1
			release := make(chan struct{})
			opt := exec.DefaultOptions()
			opt.VectorSize = 16
			if faulty {
				opt.Hooks = faults.New(faults.Config{Seed: 1, PanicEvery: 1}).Hooks()
			}
			inject := opt.Hooks.EpisodeStart
			opt.Hooks.EpisodeStart = func(inst query.InstID, slot stem.Slot) {
				started <- struct{}{}
				<-release
				if inject != nil {
					inject(inst, slot)
				}
			}
			s, err := NewSession(b, db, Config{Exec: opt, Workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			type outcome struct {
				res *Results
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := s.RunContext(ctx)
				done <- outcome{res, err}
			}()
			<-started
			<-started
			// Every vector is out; give the six idle workers time to reach
			// the condvar (whether they have is not observable, and the
			// assertions hold either way).
			time.Sleep(20 * time.Millisecond)
			cancel()
			close(release)
			var out outcome
			select {
			case out = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("cancelled batch did not return: workers still parked")
			}
			if out.err != nil {
				t.Fatalf("cancellation must not be an error: %v", out.err)
			}
			if out.res.Partial != faulty {
				t.Errorf("Partial = %v, want %v", out.res.Partial, faulty)
			}
			if faulty && len(out.res.Faults) == 0 {
				t.Error("injected panics left no fault record")
			}
			for qid, st := range out.res.Status {
				if !st.Completed && st.Err == nil {
					t.Errorf("aborted query %d has no error", qid)
				}
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > before {
				t.Errorf("goroutines after run = %d, before = %d", g, before)
			}
		})
	}
}
