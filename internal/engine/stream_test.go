package engine

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/faults"
	"github.com/roulette-db/roulette/internal/metrics"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/stem"
	"github.com/roulette-db/roulette/internal/storage"
)

// outcome is one submission's terminal status and final count, captured
// inside OnRetire while the query's source is still guaranteed alive.
type outcome struct {
	st  QueryStatus
	cnt int64
}

// retireRecorder captures each submission's outcome through OnRetire,
// keyed by submission order: query IDs are recycled after GC, so a qid
// alone is not a stable identity across a churning stream. It assumes a
// single submitting goroutine (which every test here has). The qid-reuse
// gate makes the bookkeeping sound: a qid cannot be reassigned until its
// previous holder's OnRetire callback has completed (cbPending), so at
// the moment onRetire fires the qid maps to at most one untracked
// submission — the one the single submitter just made.
type retireRecorder struct {
	mu     sync.Mutex
	s      *Session
	bySlot map[int]int       // qid -> submission slot awaiting retirement
	early  map[int][]outcome // retirements that beat the submitter's track()
	status []QueryStatus     // per-slot terminal status
	counts []int64           // per-slot final count
	done   []bool            // per-slot: OnRetire observed
}

func newRetireRecorder(s *Session) *retireRecorder {
	return &retireRecorder{s: s, bySlot: map[int]int{}, early: map[int][]outcome{}}
}

func (r *retireRecorder) onRetire(qid int, st QueryStatus) {
	cnt := r.s.Context().Sources[qid].Count()
	r.mu.Lock()
	defer r.mu.Unlock()
	if slot, ok := r.bySlot[qid]; ok {
		r.recordLocked(slot, outcome{st, cnt})
		delete(r.bySlot, qid)
		return
	}
	r.early[qid] = append(r.early[qid], outcome{st, cnt})
}

// track registers a fresh submission and returns its slot. Must be called
// by the submitting goroutine right after SubmitLiveMeta returns.
func (r *retireRecorder) track(qid int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	slot := len(r.status)
	r.status = append(r.status, QueryStatus{})
	r.counts = append(r.counts, -1)
	r.done = append(r.done, false)
	if p := r.early[qid]; len(p) > 0 {
		r.recordLocked(slot, p[0])
		r.early[qid] = p[1:]
	} else {
		r.bySlot[qid] = slot
	}
	return slot
}

func (r *retireRecorder) recordLocked(slot int, o outcome) {
	if r.done[slot] {
		panic("retireRecorder: slot retired twice")
	}
	r.done[slot], r.status[slot], r.counts[slot] = true, o.st, o.cnt
}

// retired reports whether the submission in slot has retired.
func (r *retireRecorder) retired(slot int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done[slot]
}

// check asserts every tracked submission retired exactly once, completed
// ones match the oracle, and aborted ones carry an explanation.
func (r *retireRecorder) check(t *testing.T, db *storage.Database, qs []*query.Query) (completed int) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.status) != len(qs) {
		t.Fatalf("tracked %d submissions, want %d", len(r.status), len(qs))
	}
	for slot := range r.status {
		if !r.done[slot] {
			t.Errorf("submission %d never retired", slot)
			continue
		}
		st := r.status[slot]
		if st.Completed {
			completed++
			if want := oracleCount(db, qs[slot]); r.counts[slot] != want {
				t.Errorf("completed submission %d: count = %d, oracle = %d", slot, r.counts[slot], want)
			}
			if st.Err != nil {
				t.Errorf("completed submission %d carries error %v", slot, st.Err)
			}
		} else if st.Err == nil {
			t.Errorf("aborted submission %d has no error", slot)
		}
	}
	return completed
}

// streamRun starts the session's run loop and returns a join function.
func streamRun(t *testing.T, s *Session) func() *Results {
	t.Helper()
	type runOut struct {
		res *Results
		err error
	}
	done := make(chan runOut, 1)
	go func() {
		res, err := s.Run()
		done <- runOut{res, err}
	}()
	return func() *Results {
		t.Helper()
		select {
		case out := <-done:
			if out.err != nil {
				t.Fatalf("streaming run failed: %v", out.err)
			}
			return out.res
		case <-time.After(120 * time.Second):
			t.Fatalf("streaming run did not terminate")
			return nil
		}
	}
}

// TestSubmitLiveNonBlockingDuringEpisode checks that admission waits on no
// in-flight episode. A hook parks the first episode mid-flight and releases
// it only after SubmitLiveMeta returns, so an admission that waited for
// in-flight episodes to finish would deadlock here.
func TestSubmitLiveNonBlockingDuringEpisode(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	db := starDB(rng, 2048, 64)
	blocked := make(chan struct{})
	release := make(chan struct{})
	var hooked atomic.Bool
	opt := exec.DefaultOptions()
	opt.VectorSize = 32
	opt.Hooks = exec.Hooks{EpisodeStart: func(query.InstID, stem.Slot) {
		if hooked.CompareAndSwap(false, true) {
			close(blocked)
			<-release
		}
	}}
	qJoin := &query.Query{
		Rels:  []query.RelRef{{Table: "fact"}, {Table: "d1"}},
		Joins: []query.Join{{LeftAlias: "fact", LeftCol: "fk1", RightAlias: "d1", RightCol: "k"}},
	}
	qLive := singleRel("d2")
	var rec *retireRecorder
	b := query.NewStreamBatch(8)
	s, err := NewSession(b, db, Config{
		Exec: opt, Workers: 2, Streaming: true,
		OnRetire: func(qid int, st QueryStatus) { rec.onRetire(qid, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rec = newRetireRecorder(s)
	join := streamRun(t, s)

	qa, err := s.SubmitLiveMeta(qJoin, SubmitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	rec.track(qa)
	<-blocked // an episode of qa is now parked mid-flight

	sub := make(chan error, 1)
	var qb int
	go func() {
		var e error
		qb, e = s.SubmitLiveMeta(qLive, SubmitMeta{})
		sub <- e
	}()
	select {
	case e := <-sub:
		if e != nil {
			t.Fatalf("live submit failed: %v", e)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SubmitLiveMeta blocked behind an in-flight episode (stop-the-world admission regressed)")
	}
	rec.track(qb)

	close(release)
	s.CloseSubmit()
	join()
	if completed := rec.check(t, db, []*query.Query{qJoin, qLive}); completed != 2 {
		t.Errorf("completed = %d, want 2", completed)
	}
}

// TestGCReclaimsWhileWorkersBusy asserts retired-state reclamation makes
// progress while an episode is in flight. A hook parks the first episode
// on instance 0 (query qa); qb, a join on two other instances, then drains
// and retires, and while the instance-0 episode is still parked the test
// requires qb's STeM entries to be swept, a concurrent GC quantum to be
// counted and qb's query ID to be free again: the parked episode never
// carried qb's bit, so it cannot hold qb's slot. In a two-slot batch, a
// third query on qb's instances then takes that slot and must retire with
// an exact count before the parked episode is released.
func TestGCReclaimsWhileWorkersBusy(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	db := starDB(rng, 256, 64)
	blocked := make(chan struct{})
	release := make(chan struct{})
	var hooked atomic.Bool
	opt := exec.DefaultOptions()
	opt.VectorSize = 16
	opt.Hooks = exec.Hooks{EpisodeStart: func(inst query.InstID, _ stem.Slot) {
		if inst == 0 && hooked.CompareAndSwap(false, true) {
			close(blocked)
			<-release
		}
	}}
	qa := singleRel("d2") // instance 0
	qb := &query.Query{
		Rels:  []query.RelRef{{Table: "fact"}, {Table: "d1"}},
		Joins: []query.Join{{LeftAlias: "fact", LeftCol: "fk1", RightAlias: "d1", RightCol: "k"}},
	}
	qc := &query.Query{
		Rels:    qb.Rels,
		Joins:   qb.Joins,
		Filters: []query.Filter{{Alias: "d1", Col: "a", Lo: 10, Hi: 60}},
	}
	var rec *retireRecorder
	b := query.NewStreamBatch(2)
	s, err := NewSession(b, db, Config{
		Exec: opt, Workers: 2, Streaming: true,
		OnRetire: func(qid int, st QueryStatus) { rec.onRetire(qid, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rec = newRetireRecorder(s)
	join := streamRun(t, s)

	ida, err := s.SubmitLiveMeta(qa, SubmitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	rec.track(ida)
	<-blocked // qa's first episode parked
	quantaBefore := metrics.Default().GCConcurrentQuanta.Load()

	idb, err := s.SubmitLiveMeta(qb, SubmitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	rec.track(idb)

	// qb drains, retires, and must be garbage-collected by the free
	// worker, its slot released, while the instance-0 episode is still in
	// flight.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var inserts, entries int64
		for _, st := range s.StemSnapshot() {
			inserts += st.Inserts
			entries += st.Entries
		}
		quanta := metrics.Default().GCConcurrentQuanta.Load()
		free := s.FreeQuerySlots()
		if inserts > 0 && entries == 0 && quanta > quantaBefore && free == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("GC did not reclaim qb while an episode was in flight: STeM inserts %d, entries %d, concurrent quanta %d -> %d, free slots %d",
				inserts, entries, quantaBefore, quanta, free)
		}
		time.Sleep(time.Millisecond)
	}

	// The third query reuses qb's ID and must retire while qa's episode is
	// still parked.
	idc, err := s.SubmitLiveMeta(qc, SubmitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if idc != idb {
		t.Fatalf("third query took ID %d, want qb's released ID %d", idc, idb)
	}
	slotC := rec.track(idc)
	for !rec.retired(slotC) {
		if time.Now().After(deadline) {
			t.Fatal("the query in qb's reused slot did not retire while an episode was parked")
		}
		time.Sleep(time.Millisecond)
	}

	close(release)
	s.CloseSubmit()
	join()
	if completed := rec.check(t, db, []*query.Query{qa, qb, qc}); completed != 3 {
		t.Errorf("completed = %d, want 3", completed)
	}
}

// TestStreamChurnRandomizedInterleavings is the -race property test:
// randomized submit/cancel jitter over a small query-ID pool forces
// admissions, retirements, GC passes, ID release and qid reuse to interleave with live episodes. No episode may dereference a
// reclaimed source or swept STeM state: under -race any such access
// trips the detector, and the oracle check catches silent corruption.
func TestStreamChurnRandomizedInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	db := starDB(rng, 1500, 48)
	qs := starQueries(rng, 36)
	errCancel := errors.New("injected cancel")
	opt := exec.DefaultOptions()
	opt.VectorSize = 48
	var rec *retireRecorder
	b := query.NewStreamBatch(6) // small pool: qid reuse requires full GC churn
	s, err := NewSession(b, db, Config{
		Exec: opt, Workers: 4, Streaming: true,
		OnRetire: func(qid int, st QueryStatus) { rec.onRetire(qid, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rec = newRetireRecorder(s)
	admitBefore := metrics.Default().AdmitLatency.Count()
	join := streamRun(t, s)

	tenants := []string{"", "a", "b"}
	for i, q := range qs {
		var qid int
		deadline := time.Now().Add(60 * time.Second)
		for {
			qid, err = s.SubmitLiveMeta(q, SubmitMeta{Tenant: tenants[i%len(tenants)]})
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("submission %d never admitted: %v", i, err)
			}
			time.Sleep(200 * time.Microsecond)
		}
		rec.track(qid)
		if rng.Intn(6) == 0 {
			s.CancelQuery(qid, errCancel) // races with completion; both outcomes legal
		}
		if rng.Intn(3) == 0 {
			time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
		}
	}
	s.CloseSubmit()
	join()

	completed := rec.check(t, db, qs)
	if completed == 0 {
		t.Error("no submission completed")
	}
	if got := metrics.Default().AdmitLatency.Count(); got <= admitBefore {
		t.Errorf("admission latency histogram recorded no samples (%d -> %d)", admitBefore, got)
	}
	t.Logf("churn: %d/%d completed", completed, len(qs))
}

// TestChaosAdmissionMidEpisodeWithFaults drives live admission through a
// fault storm: injected episode panics and STeM insertion failures land
// while queries are being submitted into the running pool. Quarantine
// must stay per-episode — surviving queries' counts remain exact — and
// every submission must still retire exactly once so the stream drains.
func TestChaosAdmissionMidEpisodeWithFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	db := starDB(rng, 800, 40)
	qs := starQueries(rng, 24)
	inj := faults.New(faults.Config{Seed: 11, PanicEvery: 31, InsertFailEvery: 41})
	opt := exec.DefaultOptions()
	opt.VectorSize = 32
	opt.Hooks = inj.Hooks()
	var rec *retireRecorder
	b := query.NewStreamBatch(8)
	s, err := NewSession(b, db, Config{
		Exec: opt, Workers: 3, Streaming: true,
		OnRetire: func(qid int, st QueryStatus) { rec.onRetire(qid, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rec = newRetireRecorder(s)
	join := streamRun(t, s)

	for i, q := range qs {
		var qid int
		deadline := time.Now().Add(60 * time.Second)
		for {
			qid, err = s.SubmitLiveMeta(q, SubmitMeta{})
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("submission %d never admitted: %v", i, err)
			}
			time.Sleep(200 * time.Microsecond)
		}
		rec.track(qid)
		if rng.Intn(2) == 0 {
			time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
		}
	}
	s.CloseSubmit()
	res := join()

	if inj.Panics()+inj.InsertFails() == 0 {
		t.Fatal("no faults injected (rates too low for workload?)")
	}
	if len(res.Faults) == 0 {
		t.Error("session recorded no faults despite injection")
	}
	for _, f := range res.Faults {
		if len(f.Queries) == 0 {
			t.Error("fault with no affected queries")
		}
	}
	completed := rec.check(t, db, qs)
	t.Logf("chaos: %d/%d completed through %d panics, %d insert faults",
		completed, len(qs), inj.Panics(), inj.InsertFails())
}

// TestFirstFailureCauseWins pins failLocked's contract: a query fails once,
// with its first cause, and retires once. One worker's first episode
// carries two queries; a hook parks it, one query is cancelled while it is
// parked, and the episode then faults at its STeM insert. The cancelled
// query must retire once with the cancel cause, the other once with the
// episode fault, and a CancelQuery on the faulted query — issued from its
// retirement callback, before GC can recycle its ID — must change nothing.
func TestFirstFailureCauseWins(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	db := starDB(rng, 512, 64)
	errCancel, errLate := errors.New("cancelled while parked"), errors.New("late cancel")
	blocked := make(chan struct{})
	release := make(chan struct{})
	var parked, faulted atomic.Bool
	opt := exec.DefaultOptions()
	opt.VectorSize = 32
	opt.Hooks = exec.Hooks{
		EpisodeStart: func(query.InstID, stem.Slot) {
			if parked.CompareAndSwap(false, true) {
				close(blocked)
				<-release
			}
		},
		StemInsert: func(query.InstID, stem.Slot) error {
			if faulted.CompareAndSwap(false, true) { // the parked episode's insert
				return errors.New("injected insert fault")
			}
			return nil
		},
	}
	var (
		s       *Session
		mu      sync.Mutex
		retires = map[int][]QueryStatus{}
		lateErr = map[int]error{}
	)
	retired := make(chan struct{}, 4)
	s, err := NewSession(query.NewStreamBatch(8), db, Config{
		Exec: opt, Workers: 1, Streaming: true,
		OnRetire: func(qid int, st QueryStatus) {
			var ee *EpisodeError
			if errors.As(st.Err, &ee) {
				s.CancelQuery(qid, errLate) // retired, and its ID not yet reclaimed
				s.mu.Lock()
				cause := s.failErr[qid]
				s.mu.Unlock()
				mu.Lock()
				lateErr[qid] = cause
				mu.Unlock()
			}
			mu.Lock()
			retires[qid] = append(retires[qid], st)
			mu.Unlock()
			retired <- struct{}{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both queries are submitted before the run, so the first episode (on d1,
	// the lower rank) carries both.
	qa, err := s.SubmitLiveMeta(factD1(0, 0), SubmitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := s.SubmitLiveMeta(factD1(0, 0), SubmitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	join := streamRun(t, s)
	<-blocked
	s.CancelQuery(qa, errCancel)
	s.CancelQuery(qa, errLate) // already failed: the first cause sticks
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case <-retired:
		case <-time.After(60 * time.Second):
			t.Fatal("queries did not retire after the faulted episode")
		}
	}
	s.CloseSubmit()
	res := join()

	mu.Lock()
	defer mu.Unlock()
	if got := retires[qa]; len(got) != 1 || got[0].Completed || got[0].Err != errCancel {
		t.Errorf("cancelled query %d retired %+v, want once with the cancel cause", qa, got)
	}
	var ee *EpisodeError
	if got := retires[qb]; len(got) != 1 || got[0].Completed || !errors.As(got[0].Err, &ee) {
		t.Errorf("faulted query %d retired %+v, want once with the episode fault", qb, got)
	}
	if cause, ok := lateErr[qb]; !ok || cause != retires[qb][0].Err {
		t.Errorf("CancelQuery on the faulted query %d changed its cause to %v", qb, cause)
	}
	if len(res.Faults) != 1 {
		t.Fatalf("faults = %d, want 1", len(res.Faults))
	}
	if q := res.Faults[0].Queries; len(q) != 2 {
		t.Errorf("fault names queries %v, want both %d and %d", q, qa, qb)
	}
}

// TestSubmitBeforeRunCompletesExactly covers a stream that takes
// submissions before its run starts, as a caller that starts the run on
// another goroutine may: the run then answers every query exactly.
func TestSubmitBeforeRunCompletesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	db := starDB(rng, 1024, 64)
	qs := starQueries(rng, 4)
	opt := exec.DefaultOptions()
	opt.VectorSize = 64
	var rec *retireRecorder
	s, err := NewSession(query.NewStreamBatch(8), db, Config{
		Exec: opt, Workers: 2, Streaming: true,
		OnRetire: func(qid int, st QueryStatus) { rec.onRetire(qid, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rec = newRetireRecorder(s)
	for _, q := range qs {
		qid, err := s.SubmitLiveMeta(q, SubmitMeta{})
		if err != nil {
			t.Fatal(err)
		}
		rec.track(qid)
	}
	join := streamRun(t, s)
	s.CloseSubmit()
	join()
	if completed := rec.check(t, db, qs); completed != len(qs) {
		t.Errorf("completed = %d, want %d", completed, len(qs))
	}
}
