package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/obs"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/stem"
	"github.com/roulette-db/roulette/internal/storage"
)

// capHandler is a slog handler collecting the "kind" attr of every record.
type capHandler struct {
	mu    sync.Mutex
	kinds []string
}

func (h *capHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *capHandler) Handle(_ context.Context, r slog.Record) error {
	var kind string
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "kind" {
			kind = a.Value.String()
		}
		return true
	})
	h.mu.Lock()
	h.kinds = append(h.kinds, kind)
	h.mu.Unlock()
	return nil
}
func (h *capHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *capHandler) WithGroup(string) slog.Handler      { return h }

func (h *capHandler) has(kind string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, k := range h.kinds {
		if k == kind {
			return true
		}
	}
	return false
}

// parkedFact is the fixture of the parked-episode tests: a star database,
// a hook parking the first episode on instance 0 (fact) until release is
// closed, and two queries joining fact on different columns, so the
// second's admission adds an index to fact's STeM while the first's
// episode is parked there.
func parkedFact(t *testing.T) (db *storage.Database, opt exec.Options, blocked, release chan struct{}, q1, q2 *query.Query) {
	t.Helper()
	db = starDB(rand.New(rand.NewSource(91)), 2048, 64)
	blocked, release = make(chan struct{}), make(chan struct{})
	var hooked atomic.Bool
	opt = exec.DefaultOptions()
	opt.VectorSize = 32
	opt.Hooks = exec.Hooks{EpisodeStart: func(inst query.InstID, _ stem.Slot) {
		if inst == 0 && hooked.CompareAndSwap(false, true) {
			close(blocked)
			<-release
		}
	}}
	q1 = &query.Query{
		Rels:  []query.RelRef{{Table: "fact"}, {Table: "d1"}},
		Joins: []query.Join{{LeftAlias: "fact", LeftCol: "fk1", RightAlias: "d1", RightCol: "k"}},
	}
	q2 = &query.Query{
		Rels:  []query.RelRef{{Table: "fact"}, {Table: "d2"}},
		Joins: []query.Join{{LeftAlias: "fact", LeftCol: "fk2", RightAlias: "d2", RightCol: "k"}},
	}
	return db, opt, blocked, release, q1, q2
}

// TestAddIndexAdmissionOverlapsParkedEpisode parks an episode on fact and
// then submits a query whose join adds an index to fact's STeM. The
// admission must not wait for the parked episode: the query is active at
// once, and the second worker scans its dimension, an instance only that
// query reads, while the episode is still parked. Both queries' results
// must match the oracle once the episode is released.
func TestAddIndexAdmissionOverlapsParkedEpisode(t *testing.T) {
	db, opt, blocked, release, q1, q2 := parkedFact(t)
	started := make(chan struct{}, 1)
	park := opt.Hooks.EpisodeStart
	var d2 atomic.Int32
	d2.Store(-1)
	opt.Hooks.EpisodeStart = func(inst query.InstID, slot stem.Slot) {
		if int32(inst) == d2.Load() {
			select {
			case started <- struct{}{}:
			default:
			}
		}
		park(inst, slot)
	}
	var rr *retireRecorder
	s, err := NewSession(query.NewStreamBatch(8), db, Config{
		Exec: opt, Workers: 2, Streaming: true,
		OnRetire: func(qid int, st QueryStatus) { rr.onRetire(qid, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rr = newRetireRecorder(s)
	join := streamRun(t, s)
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	id1, err := s.SubmitLiveMeta(q1, SubmitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	rr.track(id1)
	<-blocked
	if s.Context().Stems[0].HasIndex("fk2") {
		t.Fatal("fixture: fact's STeM indexes fk2 before the second query")
	}
	s.WithCompiled(func(b *query.Batch, _ *exec.Context, _ bitset.Set) { d2.Store(int32(len(b.Insts))) })
	id2, err := s.SubmitLiveMeta(q2, SubmitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	rr.track(id2)
	if !s.Context().Stems[0].HasIndex("fk2") {
		t.Fatal("the admission returned without indexing fk2 on fact's STeM")
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("the admitted query's dimension was not scanned while the fact episode was parked")
	}
	if snap := s.DebugSnapshot(); snap.Insts[0].InFlight == 0 {
		t.Fatal("fact has no episode in flight; the parked one finished early")
	}

	close(release)
	s.CloseSubmit()
	join()
	if completed := rr.check(t, db, []*query.Query{q1, q2}); completed != 2 {
		t.Errorf("completed = %d, want 2", completed)
	}
}

// TestStalledEpisodeDiagnosisAndTrace parks an episode on fact while a
// second query's admission adds an index to fact's STeM. The parked
// episode must be named — instance, table, worker and its queries — by
// DebugSnapshot, by Diagnose and by the watchdog's logged report, and the
// flight-recorder capture of the whole incident must render as valid
// Chrome trace_event JSON.
func TestStalledEpisodeDiagnosisAndTrace(t *testing.T) {
	db, opt, blocked, release, q1, q2 := parkedFact(t)
	logs := &capHandler{}
	var rr *retireRecorder
	s, err := NewSession(query.NewStreamBatch(8), db, Config{
		Exec: opt, Workers: 1, Streaming: true,
		Logger:        slog.New(logs),
		StallWatchdog: 5 * time.Millisecond,
		OnRetire:      func(qid int, st QueryStatus) { rr.onRetire(qid, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rr = newRetireRecorder(s)
	join := streamRun(t, s)

	id1, err := s.SubmitLiveMeta(q1, SubmitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	rr.track(id1)
	<-blocked // q1's fact episode is parked
	id2, err := s.SubmitLiveMeta(q2, SubmitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	rr.track(id2)

	snap := s.DebugSnapshot()
	if snap.InFlight != 1 || snap.Insts[0].InFlight != 1 {
		t.Errorf("in-flight = %d, on fact %d; want 1 (the parked episode)", snap.InFlight, snap.Insts[0].InFlight)
	}
	time.Sleep(20 * time.Millisecond) // age the episode past the threshold
	var stall *Finding
	findings := s.Diagnose(time.Millisecond)
	for i := range findings {
		if findings[i].Kind == "stalled_episode" {
			stall = &findings[i]
		}
	}
	if stall == nil {
		t.Fatalf("no stalled_episode finding in %+v", findings)
	}
	if stall.Inst != 0 || stall.Table != "fact" || stall.Worker != 0 {
		t.Errorf("finding names inst %d (%s), worker %d; want 0 (fact), worker 0", stall.Inst, stall.Table, stall.Worker)
	}
	if !slices.Contains(stall.Queries, id1) {
		t.Errorf("finding queries %v do not name the parked query %d", stall.Queries, id1)
	}

	// The watchdog goroutine must log the same diagnosis once the episode
	// outlives its default threshold.
	deadline := time.Now().Add(10 * time.Second)
	for !logs.has("stalled_episode") {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never logged the stalled_episode diagnosis")
		}
		time.Sleep(5 * time.Millisecond)
	}

	close(release)
	s.CloseSubmit()
	join()
	if completed := rr.check(t, db, []*query.Query{q1, q2}); completed != 2 {
		t.Errorf("completed = %d, want 2", completed)
	}

	// The recorder must hold the incident's causal record...
	rec := s.Recorder()
	evs := rec.Snapshot()
	seen := map[obs.Kind]bool{}
	for _, e := range evs {
		seen[e.Kind] = true
	}
	for _, k := range []obs.Kind{
		obs.KSubmit, obs.KAdmit, obs.KEpisodeStart, obs.KEpisodeEnd, obs.KRetire,
	} {
		if !seen[k] {
			t.Errorf("timeline missing %v event", k)
		}
	}
	// ...and the capture must render as valid trace_event JSON.
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, evs, rec.Rings()); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace capture is not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) < len(evs) {
		t.Fatalf("trace has %d events, want >= %d", len(tf.TraceEvents), len(evs))
	}
	for i, te := range tf.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := te[key]; !ok {
				t.Fatalf("trace event %d missing %q", i, key)
			}
		}
		if te["ph"] == "X" {
			if d, ok := te["dur"].(float64); !ok || d < 0 {
				t.Fatalf("complete event %d has bad dur %v", i, te["dur"])
			}
		}
	}
}

// TestDiagnoseNamesQueriesBeyondFirstWord parks an episode whose active set
// spans two bitset words and requires DebugSnapshot and Diagnose to name
// every query in it, including those with IDs of 64 and above.
func TestDiagnoseNamesQueriesBeyondFirstWord(t *testing.T) {
	const n = 70
	rng := rand.New(rand.NewSource(94))
	db := starDB(rng, 256, 16)
	qs := make([]*query.Query, n)
	for i := range qs {
		qs[i] = factD1(0, 0)
	}
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	blocked := make(chan struct{})
	release := make(chan struct{})
	var hooked atomic.Bool
	opt := exec.DefaultOptions()
	opt.VectorSize = 32
	// Park the batch's first episode: every query scans both relations, so
	// its active set holds all n queries.
	opt.Hooks = exec.Hooks{EpisodeStart: func(query.InstID, stem.Slot) {
		if hooked.CompareAndSwap(false, true) {
			close(blocked)
			<-release
		}
	}}
	s, err := NewSession(b, db, Config{Exec: opt, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Run()
		done <- err
	}()
	<-blocked

	names := func(where string, got []int) {
		t.Helper()
		if len(got) != n || got[0] != 0 || got[n-1] != n-1 {
			t.Errorf("%s names queries %v, want 0..%d", where, got, n-1)
		}
	}
	snap := s.DebugSnapshot()
	if len(snap.Workers) != 1 {
		t.Fatalf("snapshot shows %d open episodes, want 1", len(snap.Workers))
	}
	names("DebugSnapshot", snap.Workers[0].ActiveQueries)
	time.Sleep(2 * time.Millisecond) // age the episode past the threshold
	var stalled *Finding
	findings := s.Diagnose(time.Millisecond)
	for i := range findings {
		if findings[i].Kind == "stalled_episode" {
			stalled = &findings[i]
		}
	}
	if stalled == nil {
		t.Fatalf("no stalled_episode finding in %+v", findings)
	}
	names("Diagnose", stalled.Queries)

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestTimelineInvariants checks the merged-timeline contract over a real
// streaming run: globally ordered by wall time, per-ring sequence numbers
// strictly increasing, per-ring version-clock stamps non-decreasing, and
// every worker ring an alternation of episode start/end pairs over the
// same (instance, slot) with end at or after start. An end's version clock
// is strictly past its start's: the episode's own publish lies between.
func TestTimelineInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	db := starDB(rng, 1024, 64)
	opt := exec.DefaultOptions()
	opt.VectorSize = 64
	var rr *retireRecorder
	b := query.NewStreamBatch(16)
	s, err := NewSession(b, db, Config{
		Exec: opt, Workers: 2, Streaming: true,
		OnRetire: func(qid int, st QueryStatus) { rr.onRetire(qid, st) },
	})
	if err != nil {
		t.Fatal(err)
	}
	rr = newRetireRecorder(s)
	join := streamRun(t, s)
	qs := starQueries(rng, 8)
	for _, q := range qs {
		qid, err := s.SubmitLiveMeta(q, SubmitMeta{})
		if err != nil {
			t.Fatal(err)
		}
		rr.track(qid)
	}
	s.CloseSubmit()
	join()
	rr.check(t, db, qs)

	evs := s.Recorder().Snapshot()
	if len(evs) == 0 {
		t.Fatal("empty timeline")
	}
	lastSeq := map[int32]uint64{}
	lastVC := map[int32]int64{}
	type open struct {
		inst, slot int64
		ts, vc     int64
		live       bool
	}
	openEp := map[int32]*open{}
	episodes := 0
	for i, e := range evs {
		if i > 0 && e.TS < evs[i-1].TS {
			t.Fatalf("event %d: global TS order violated", i)
		}
		if e.Seq <= lastSeq[e.Ring] {
			t.Fatalf("event %d: ring %d seq not monotonic", i, e.Ring)
		}
		lastSeq[e.Ring] = e.Seq
		if e.VC < lastVC[e.Ring] {
			t.Fatalf("event %d: ring %d version clock went backwards (%d < %d)",
				i, e.Ring, e.VC, lastVC[e.Ring])
		}
		lastVC[e.Ring] = e.VC
		switch e.Kind {
		case obs.KEpisodeStart:
			if o := openEp[e.Ring]; o != nil && o.live {
				t.Fatalf("event %d: ring %d started an episode inside an open one", i, e.Ring)
			}
			openEp[e.Ring] = &open{inst: e.A, slot: e.B, ts: e.TS, vc: e.VC, live: true}
		case obs.KEpisodeEnd:
			o := openEp[e.Ring]
			if o == nil || !o.live {
				t.Fatalf("event %d: ring %d episode end without start", i, e.Ring)
			}
			if o.inst != e.A || o.slot != e.B {
				t.Fatalf("event %d: episode end (inst %d, slot %d) does not match start (inst %d, slot %d)",
					i, e.A, e.B, o.inst, o.slot)
			}
			if e.TS < o.ts {
				t.Fatalf("event %d: episode end before start", i)
			}
			if e.VC <= o.vc {
				t.Fatalf("event %d: episode end's version clock %d not past its start's %d", i, e.VC, o.vc)
			}
			o.live = false
			episodes++
		}
	}
	for ring, o := range openEp {
		if o.live {
			t.Errorf("ring %d finished the run with an open episode", ring)
		}
	}
	if episodes == 0 {
		t.Fatal("no complete episodes in the timeline")
	}
}

// TestRingEventsOnShedAndPromotion asserts the control plane's events land
// on the flight recorder: a deadline-urgency lane promotion and a mid-flight
// shed each record one typed event naming the query and its tenant.
func TestRingEventsOnShedAndPromotion(t *testing.T) {
	// A wide urgency window keeps the promotion deterministic: the deadline
	// is comfortably in the future (no shed race) yet inside the window.
	s, _ := schedSession(t, 8, Config{})
	s.deadlineUrgency = time.Minute

	urgent, err := s.SubmitLiveMeta(singleRel("d1"), SubmitMeta{
		Tenant: "fast", Deadline: time.Now().Add(30 * time.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	drive(s, 64) // selection inside the urgency window records the promotion
	drive(s, 64) // ...once: the lane boost recurs, the event does not
	s.mu.Unlock()

	dead, err := s.SubmitLiveMeta(singleRel("d2"), SubmitMeta{
		Tenant: "late", Deadline: time.Now().Add(-time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.pickScanLocked() // expired deadline: shed
	s.mu.Unlock()

	var promotes, sheds []obs.Event
	rec := s.Recorder()
	for _, e := range rec.Snapshot() {
		if int(e.Ring) != rec.Rings()-1 {
			t.Errorf("%v event on ring %d: nothing ran an episode, so only the control ring may hold events", e.Kind, e.Ring)
		}
		switch e.Kind {
		case obs.KLanePromote:
			promotes = append(promotes, e)
		case obs.KShed:
			sheds = append(sheds, e)
		}
	}
	if len(promotes) != 1 || promotes[0].A != int64(urgent) || promotes[0].C != tenantHash("fast") {
		t.Errorf("lane_promote events = %+v, want one for qid %d of tenant fast", promotes, urgent)
	}
	if len(sheds) != 1 || sheds[0].A != int64(dead) || sheds[0].B != 1 || sheds[0].C != tenantHash("late") {
		t.Errorf("shed events = %+v, want one mid-flight shed for qid %d of tenant late", sheds, dead)
	}
}

// TestDebugSnapshotBatchSession ensures the snapshot is safe on a batch
// (non-streaming) session that has not run yet.
func TestDebugSnapshotBatchSession(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	db := starDB(rng, 256, 64)
	b, err := query.Compile(starQueries(rng, 4))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(b, db, Config{Exec: exec.DefaultOptions(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.DebugSnapshot()
	if snap.Streaming || len(snap.Insts) == 0 {
		t.Fatalf("unexpected snapshot: %+v", snap)
	}
	for _, inst := range snap.Insts {
		if inst.Table == "" {
			t.Errorf("instance %d missing table name", inst.Inst)
		}
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}
