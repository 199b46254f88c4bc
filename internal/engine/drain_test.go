package engine

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/stem"
)

// The tests in this file pin the drain rule (DESIGN.md §12): a query's
// source and ID are released at the end of the GC pass that swept it, and
// only an in-flight episode carrying the query's own bit, or its pending
// OnRetire callback, holds it back.

// waitUntil polls cond every millisecond and fails the test with msg when
// it is still false after 60 s.
func waitUntil(t *testing.T, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// factJoin is fact ⋈ d1, so its episodes build entries in both STeMs.
func factJoin() *query.Query {
	return &query.Query{
		Rels:  []query.RelRef{{Table: "fact"}, {Table: "d1"}},
		Joins: []query.Join{{LeftAlias: "fact", LeftCol: "fk1", RightAlias: "d1", RightCol: "k"}},
	}
}

// TestCancelledQueryHoldsSlotUntilItsEpisodeEnds checks the other half of
// the drain rule: an episode that carries a query's bit keeps the query
// from retiring, even once the query is cancelled, so its ID stays held
// for as long as that episode is parked. Released, the query retires with
// its cause, and its ID is free for the next query.
func TestCancelledQueryHoldsSlotUntilItsEpisodeEnds(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	db := starDB(rng, 256, 64)
	blocked, release := make(chan struct{}), make(chan struct{})
	var hooked atomic.Bool
	opt := exec.DefaultOptions()
	opt.VectorSize = 16
	opt.Hooks = exec.Hooks{EpisodeStart: func(query.InstID, stem.Slot) {
		if hooked.CompareAndSwap(false, true) {
			close(blocked)
			<-release
		}
	}}
	qa, qb := singleRel("fact"), singleRel("d1")
	var rec *retireRecorder
	s, err := NewSession(query.NewStreamBatch(1), db, Config{
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
	slotA := rec.track(ida)
	<-blocked // an episode carrying qa's bit is parked
	cause := errors.New("cancelled while an episode is parked")
	s.CancelQuery(ida, cause)

	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if rec.retired(slotA) {
			t.Fatal("cancelled query retired while an episode carrying its bit was parked")
		}
		if free := s.FreeQuerySlots(); free != 0 {
			t.Fatalf("free slots = %d while an episode carrying the cancelled query's bit is parked, want 0", free)
		}
	}
	if w := s.DebugSnapshot().Workers; len(w) != 1 || !slices.Contains(w[0].ActiveQueries, ida) {
		t.Fatalf("open episodes = %+v, want one carrying query %d", w, ida)
	}

	close(release)
	waitUntil(t, "cancelled query's slot did not come free after its episode ended", func() bool {
		return rec.retired(slotA) && s.FreeQuerySlots() == 1
	})
	idb, err := s.SubmitLiveMeta(qb, SubmitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	if idb != ida {
		t.Fatalf("next query took ID %d, want the cancelled query's ID %d", idb, ida)
	}
	rec.track(idb)
	s.CloseSubmit()
	join()
	if completed := rec.check(t, db, []*query.Query{qa, qb}); completed != 1 {
		t.Errorf("completed = %d, want 1", completed)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if st := rec.status[slotA]; st.Completed || !errors.Is(st.Err, cause) {
		t.Errorf("cancelled query status = %+v, want aborted with %v", st, cause)
	}
}

// TestIdleSessionReleasesRetiredSlot checks that a retired query's ID comes
// back with nothing else happening: no further submission and no episode
// has to follow the GC pass for the pass to release it.
func TestIdleSessionReleasesRetiredSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	db := starDB(rng, 512, 64)
	opt := exec.DefaultOptions()
	opt.VectorSize = 32
	q := factJoin()
	var rec *retireRecorder
	s, err := NewSession(query.NewStreamBatch(1), db, Config{
		Exec: opt, Workers: 2, Streaming: true,
		OnRetire: func(qid int, st QueryStatus) { rec.onRetire(qid, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rec = newRetireRecorder(s)
	join := streamRun(t, s)

	qid, err := s.SubmitLiveMeta(q, SubmitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	slot := rec.track(qid)
	waitUntil(t, "query did not retire", func() bool { return rec.retired(slot) })
	waitUntil(t, "an idle session did not release the retired query's slot", func() bool {
		return s.FreeQuerySlots() == 1
	})

	snap := s.DebugSnapshot()
	if snap.InFlight != 0 || snap.LiveQueries != 0 || snap.GC.Running || snap.GC.RetiredPending != 0 {
		t.Errorf("after release: in flight %d, live %d, GC running %v, retired pending %d; want 0, 0, false, 0",
			snap.InFlight, snap.LiveQueries, snap.GC.Running, snap.GC.RetiredPending)
	}
	for _, in := range snap.Insts {
		if in.StemEntries != 0 {
			t.Errorf("instance %d (%s) holds %d STeM entries after its only query was released", in.Inst, in.Table, in.StemEntries)
		}
	}
	s.mu.Lock()
	src := s.ctx.Sources[qid]
	s.mu.Unlock()
	if src != nil {
		t.Error("released query's source is still referenced")
	}
	s.CloseSubmit()
	join()
	if completed := rec.check(t, db, []*query.Query{q}); completed != 1 {
		t.Errorf("completed = %d, want 1", completed)
	}
}

// TestGCPassSweepsEveryStemBeforeRelease checks the order of a GC pass:
// when the pass finishes (PolicySweep runs first thing in gcFinishLocked),
// every STeM has been swept of the retiring queries and their sources and
// IDs are still held; the release comes after.
func TestGCPassSweepsEveryStemBeforeRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	db := starDB(rng, 512, 64)
	opt := exec.DefaultOptions()
	opt.VectorSize = 32
	qs := []*query.Query{factJoin(), factJoin()}
	qs[1].Filters = []query.Filter{{Alias: "d1", Col: "a", Lo: 20, Hi: 70}}

	type finish struct {
		ids     []int
		free    int
		entries int
		sources int
	}
	var (
		mu       sync.Mutex
		finishes []finish
		s        *Session
		rec      *retireRecorder
	)
	s, err := NewSession(query.NewStreamBatch(1), db, Config{
		Exec: opt, Workers: 2, Streaming: true,
		OnRetire: func(qid int, st QueryStatus) { rec.onRetire(qid, st) },
		PolicySweep: func(b *query.Batch, ctx *exec.Context, _ bitset.Set) {
			if !s.gc.running {
				return // the run's end, not a GC pass
			}
			f := finish{ids: s.gc.active.IDs(), free: b.Free()}
			for _, st := range ctx.Stems {
				f.entries += st.Len()
			}
			for _, qid := range f.ids {
				if ctx.Sources[qid] != nil {
					f.sources++
				}
			}
			mu.Lock()
			finishes = append(finishes, f)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec = newRetireRecorder(s)
	join := streamRun(t, s)

	for i, q := range qs {
		waitUntil(t, "slot did not come free", func() bool { return s.FreeQuerySlots() == 1 })
		qid, err := s.SubmitLiveMeta(q, SubmitMeta{})
		if err != nil {
			t.Fatal(err)
		}
		slot := rec.track(qid)
		waitUntil(t, "query did not retire", func() bool { return rec.retired(slot) })
		waitUntil(t, "retired query's slot was not released", func() bool { return s.FreeQuerySlots() == 1 })
		mu.Lock()
		n := len(finishes)
		mu.Unlock()
		if n != i+1 {
			t.Fatalf("after query %d released: %d finished GC passes, want %d", i, n, i+1)
		}
	}
	s.CloseSubmit()
	join()
	rec.check(t, db, qs)
	for i, f := range finishes {
		if len(f.ids) != 1 {
			t.Errorf("pass %d finished queries %v, want one", i, f.ids)
		}
		if f.free != 0 || f.sources != len(f.ids) {
			t.Errorf("pass %d: %d free slots and %d of %d sources held when it finished; want 0 free, all held",
				i, f.free, f.sources, len(f.ids))
		}
		if f.entries != 0 {
			t.Errorf("pass %d finished with %d STeM entries left unswept", i, f.entries)
		}
	}
}

// TestSlotHeldWhileOnRetireRuns checks that a retired query's pending
// OnRetire callback keeps it out of GC: while the callback runs, the
// query's source stays readable, its STeM entries stay unswept and its ID
// stays taken; once the callback returns, the ID comes free.
func TestSlotHeldWhileOnRetireRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	db := starDB(rng, 512, 64)
	opt := exec.DefaultOptions()
	opt.VectorSize = 32
	q := factJoin()
	inCb, release := make(chan struct{}), make(chan struct{})
	var (
		s     *Session
		cbCnt atomic.Int64
	)
	s, err := NewSession(query.NewStreamBatch(1), db, Config{
		Exec: opt, Workers: 2, Streaming: true,
		OnRetire: func(qid int, _ QueryStatus) {
			close(inCb)
			<-release
			cbCnt.Store(s.Context().Sources[qid].Count())
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	join := streamRun(t, s)

	qid, err := s.SubmitLiveMeta(q, SubmitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	<-inCb
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if free := s.FreeQuerySlots(); free != 0 {
			t.Fatalf("free slots = %d while the query's OnRetire callback runs, want 0", free)
		}
	}
	snap := s.DebugSnapshot()
	if snap.GC.Running || snap.GC.RetiredPending != 1 {
		t.Errorf("while OnRetire runs: GC running %v, retired pending %d; want false, 1", snap.GC.Running, snap.GC.RetiredPending)
	}
	entries := 0
	for _, in := range snap.Insts {
		entries += in.StemEntries
	}
	if entries == 0 {
		t.Error("the query's STeM entries were swept while its OnRetire callback runs")
	}

	close(release)
	waitUntil(t, "slot did not come free after OnRetire returned", func() bool { return s.FreeQuerySlots() == 1 })
	if got, want := cbCnt.Load(), oracleCount(db, q); got != want {
		t.Errorf("count read in OnRetire = %d, oracle = %d", got, want)
	}
	s.mu.Lock()
	src := s.ctx.Sources[qid]
	s.mu.Unlock()
	if src != nil {
		t.Error("released query's source is still referenced")
	}
	s.CloseSubmit()
	join()
}

// TestSingleSlotStreamReusesIDExactly runs joins with different filters one
// after another through a one-slot stream: each takes the ID its
// predecessor released, over STeMs swept of the predecessor's bits, and
// must still be answered exactly.
func TestSingleSlotStreamReusesIDExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	db := starDB(rng, 512, 64)
	qs := starQueries(rng, 6)
	opt := exec.DefaultOptions()
	opt.VectorSize = 32
	var rec *retireRecorder
	s, err := NewSession(query.NewStreamBatch(1), db, Config{
		Exec: opt, Workers: 2, Streaming: true,
		OnRetire: func(qid int, st QueryStatus) { rec.onRetire(qid, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rec = newRetireRecorder(s)
	join := streamRun(t, s)

	first := -1
	for _, q := range qs {
		waitUntil(t, "slot did not come free", func() bool { return s.FreeQuerySlots() == 1 })
		qid, err := s.SubmitLiveMeta(q, SubmitMeta{})
		if err != nil {
			t.Fatal(err)
		}
		if first < 0 {
			first = qid
		} else if qid != first {
			t.Fatalf("query took ID %d, want the one slot's ID %d", qid, first)
		}
		slot := rec.track(qid)
		waitUntil(t, "query did not retire", func() bool { return rec.retired(slot) })
	}
	s.CloseSubmit()
	join()
	if completed := rec.check(t, db, qs); completed != len(qs) {
		t.Errorf("completed = %d, want %d", completed, len(qs))
	}
}

// TestRetiredSlotsFreeUnderSustainedEpisodes cycles short queries through
// one slot of a two-slot stream while a long scan on another relation keeps
// starting and ending episodes: a hook lets each of the scan's episodes run
// only on a tick the test hands out while it waits, and the scan needs more
// episodes than the test hands out, so it stays live throughout. Each short
// query's slot must come free while the scan is live.
func TestRetiredSlotsFreeUnderSustainedEpisodes(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	db := starDB(rng, 8192, 64)
	tick, gate := make(chan struct{}), make(chan struct{})
	opt := exec.DefaultOptions()
	opt.VectorSize = 16
	opt.Hooks = exec.Hooks{EpisodeStart: func(inst query.InstID, _ stem.Slot) {
		if inst != 0 {
			return
		}
		select {
		case <-tick:
		case <-gate:
		}
	}}
	long := singleRel("fact") // instance 0: 512 vectors
	qs := []*query.Query{long}
	var rec *retireRecorder
	s, err := NewSession(query.NewStreamBatch(2), db, Config{
		Exec: opt, Workers: 2, Streaming: true,
		OnRetire: func(qid int, st QueryStatus) { rec.onRetire(qid, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rec = newRetireRecorder(s)
	join := streamRun(t, s)

	idLong, err := s.SubmitLiveMeta(long, SubmitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	slotLong := rec.track(idLong)
	const maxTicks = 256 // fewer than the long scan's 512 episodes
	ticks, shortID := 0, -1
	for i := 0; i < 4; i++ {
		lo := int64(20 * i)
		q := &query.Query{
			Rels:    []query.RelRef{{Table: "d1"}},
			Filters: []query.Filter{{Alias: "d1", Col: "a", Lo: lo, Hi: lo + 40}},
		}
		qs = append(qs, q)
		qid, err := s.SubmitLiveMeta(q, SubmitMeta{})
		if err != nil {
			t.Fatalf("short query %d: %v", i, err)
		}
		if shortID < 0 {
			shortID = qid
		} else if qid != shortID {
			t.Fatalf("short query %d took ID %d, want the reused ID %d", i, qid, shortID)
		}
		slot := rec.track(qid)
		deadline := time.Now().Add(60 * time.Second)
		for !rec.retired(slot) || s.FreeQuerySlots() != 1 {
			if time.Now().After(deadline) {
				t.Fatalf("short query %d: slot not free while the long scan runs (free slots %d)", i, s.FreeQuerySlots())
			}
			if ticks < maxTicks {
				select {
				case tick <- struct{}{}:
					ticks++
					continue
				default:
				}
			}
			time.Sleep(time.Millisecond)
		}
		if rec.retired(slotLong) {
			t.Fatalf("the long scan retired during cycle %d; it must stay live", i)
		}
	}
	if ticks == 0 {
		t.Error("the long scan ran no episode while the short queries cycled")
	}
	close(gate)
	s.CloseSubmit()
	join()
	if completed := rec.check(t, db, qs); completed != len(qs) {
		t.Errorf("completed = %d, want %d", completed, len(qs))
	}
}
