package engine

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/roulette-db/roulette/internal/admission"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
)

// schedSession builds an idle streaming session (no worker pool) over the
// star schema, for driving the scheduler's locked entry points directly.
func schedSession(t *testing.T, qcap int, cfg Config) (*Session, *storage.Database) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	db := starDB(rng, 4096, 64)
	cfg.Streaming = true
	if cfg.Policy == nil {
		cfg.Policy = policy.NewRandom(1)
	}
	b := query.NewStreamBatch(qcap)
	s, err := NewSession(b, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, db
}

// singleRel returns a one-relation count(*) query over the given table.
func singleRel(table string) *query.Query {
	return &query.Query{Rels: []query.RelRef{{Table: table}}}
}

// scanOf returns the scan index of qid's only instance.
func scanOf(s *Session, qid int) int {
	insts := s.b.QueryInsts(qid)
	if len(insts) != 1 {
		panic("singleRel expected")
	}
	return int(insts[0])
}

// drive picks a scan and charges one vector of service to every query
// active on it, mimicking takeVectorLocked's accounting without executing.
func drive(s *Session, n int) int {
	best := s.pickScanLocked()
	if best < 0 {
		return best
	}
	s.scans[best].active.ForEach(func(qid int) { s.chargeServiceLocked(qid, n) })
	s.episode++
	return best
}

func TestSchedWeightedFairShare(t *testing.T) {
	s, _ := schedSession(t, 8, Config{})
	qa, err := s.SubmitLiveMeta(singleRel("d1"), SubmitMeta{Tenant: "a", Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	qb, err := s.SubmitLiveMeta(singleRel("d2"), SubmitMeta{Tenant: "b", Weight: 3})
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := scanOf(s, qa), scanOf(s, qb)

	s.mu.Lock()
	served := map[int]int{}
	for i := 0; i < 400; i++ {
		best := drive(s, 64)
		if best != sa && best != sb {
			t.Fatalf("picked unexpected scan %d", best)
		}
		served[best]++
	}
	s.mu.Unlock()
	// Weight 3 vs 1: tenant b should get ~3x the service of tenant a.
	ratio := float64(served[sb]) / float64(served[sa])
	if ratio < 2.0 || ratio > 4.5 {
		t.Errorf("service ratio = %.2f (a=%d, b=%d), want ~3", ratio, served[sa], served[sb])
	}
}

func TestSchedPriorityLane(t *testing.T) {
	s, _ := schedSession(t, 8, Config{})
	lo, err := s.SubmitLiveMeta(singleRel("d1"), SubmitMeta{Tenant: "lo"})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := s.SubmitLiveMeta(singleRel("d2"), SubmitMeta{Tenant: "hi", Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	sHi := scanOf(s, hi)
	_ = lo

	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < 20; i++ {
		if best := drive(s, 64); best != sHi {
			t.Fatalf("pick %d chose scan %d, want high-priority scan %d", i, best, sHi)
		}
	}
}

func TestSchedDeadlineUrgencyBoost(t *testing.T) {
	// The test asserts lane order, not timing: the deadline is far enough
	// out never to expire (and shed the query) before the pick, and the
	// urgency window wide enough to cover it.
	s, _ := schedSession(t, 8, Config{})
	s.deadlineUrgency = 24 * time.Hour
	if _, err := s.SubmitLiveMeta(singleRel("d1"), SubmitMeta{Tenant: "hi", Priority: 9}); err != nil {
		t.Fatal(err)
	}
	// Low priority, but its deadline is inside the urgency window: the
	// urgent-lane boost must outrank any user priority.
	urgent, err := s.SubmitLiveMeta(singleRel("d2"), SubmitMeta{
		Tenant: "urgent", Deadline: time.Now().Add(time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	sUrgent := scanOf(s, urgent)

	s.mu.Lock()
	defer s.mu.Unlock()
	if best := drive(s, 64); best != sUrgent {
		t.Fatalf("picked scan %d, want deadline-urgent scan %d", best, sUrgent)
	}
}

func TestSchedExpiredDeadlineShed(t *testing.T) {
	var retiredQ []int
	var retiredErr []error
	s, _ := schedSession(t, 8, Config{
		OnRetire: func(qid int, st QueryStatus) {
			retiredQ = append(retiredQ, qid)
			retiredErr = append(retiredErr, st.Err)
		},
	})
	keep, err := s.SubmitLiveMeta(singleRel("d1"), SubmitMeta{Tenant: "keep"})
	if err != nil {
		t.Fatal(err)
	}
	dead, err := s.SubmitLiveMeta(singleRel("d2"), SubmitMeta{
		Tenant: "late", Deadline: time.Now().Add(-time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}

	s.mu.Lock()
	best := s.pickScanLocked()
	if best != scanOf(s, keep) {
		t.Errorf("picked scan %d, want surviving query's scan %d", best, scanOf(s, keep))
	}
	if !s.failed.Contains(dead) {
		t.Error("expired query not marked failed")
	}
	if s.shedCount != 1 {
		t.Errorf("shedCount = %d, want 1", s.shedCount)
	}
	if s.deadlineLive != 0 || s.nextDeadline != 0 {
		t.Errorf("deadline cursor not cleared: live=%d next=%d", s.deadlineLive, s.nextDeadline)
	}
	cbs := s.takeCallbacksLocked()
	s.mu.Unlock()
	s.runCallbacks(cbs)

	if len(retiredQ) != 1 || retiredQ[0] != dead {
		t.Fatalf("retired queries = %v, want [%d]", retiredQ, dead)
	}
	var se *admission.ShedError
	if !errors.As(retiredErr[0], &se) || se.AtSubmit {
		t.Fatalf("shed error = %v, want mid-flight *ShedError", retiredErr[0])
	}
	if !errors.Is(retiredErr[0], admission.ErrDeadlineShed) {
		t.Error("shed error does not match ErrDeadlineShed")
	}
}

func TestSchedStarvationWatchdog(t *testing.T) {
	s, _ := schedSession(t, 8, Config{})
	s.starveEpisodes = 16
	if _, err := s.SubmitLiveMeta(singleRel("d1"), SubmitMeta{Tenant: "hog", Priority: 7}); err != nil {
		t.Fatal(err)
	}
	starvedQ, err := s.SubmitLiveMeta(singleRel("d2"), SubmitMeta{Tenant: "meek"})
	if err != nil {
		t.Fatal(err)
	}
	sMeek := scanOf(s, starvedQ)

	s.mu.Lock()
	defer s.mu.Unlock()
	// The hog's priority lane wins every pick until the watchdog fires.
	for i := 0; i < 100; i++ {
		if best := drive(s, 64); best == sMeek {
			if s.starveBoosts == 0 {
				t.Fatalf("meek tenant served at pick %d without a starvation boost", i)
			}
			if i < 16 {
				t.Fatalf("watchdog fired after only %d episodes (threshold 16)", i)
			}
			// Service clears the boost; the hog resumes until the next sweep.
			tid := s.tenantIDs["meek"]
			if s.tenants[tid].starved {
				t.Error("starved flag not cleared by service")
			}
			return
		}
	}
	t.Fatal("meek tenant never served: starvation watchdog did not fire")
}

// TestSchedStepNoAlloc guards the acceptance criterion that admission
// accounting adds no allocation to the steady-state episode step: scan
// selection (including the deadline check path) and service charging are
// array reads/writes only.
func TestSchedStepNoAlloc(t *testing.T) {
	s, _ := schedSession(t, 8, Config{})
	qa, err := s.SubmitLiveMeta(singleRel("d1"), SubmitMeta{Tenant: "a", Weight: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitLiveMeta(singleRel("d2"), SubmitMeta{
		Tenant: "b", Deadline: time.Now().Add(time.Hour),
	}); err != nil {
		t.Fatal(err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	allocs := testing.AllocsPerRun(200, func() {
		if s.pickScanLocked() < 0 {
			t.Fatal("no scan to pick")
		}
		s.chargeServiceLocked(qa, 1024)
		s.episode++
	})
	if allocs != 0 {
		t.Errorf("scheduler step allocates %.1f objects/op, want 0", allocs)
	}
}

// TestDispatchAllocations pins what handing out one episode's work
// (takeVectorLocked, as a one-worker session dispatches it) allocates for
// a lone count(*) query: the active set's copy and the final set, since
// the query's only scan is its last. The vector itself travels as its scan
// range (EpisodeInput.First, N), not a vID slice, which was one allocation
// more per episode. The 16-row vectors keep the query from finishing its
// 4096-row scan inside the runs.
func TestDispatchAllocations(t *testing.T) {
	opt := exec.DefaultOptions()
	opt.VectorSize = 16
	s, _ := schedSession(t, 8, Config{Exec: opt})
	qid, err := s.SubmitLiveMeta(singleRel("fact"), SubmitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	inst := query.InstID(scanOf(s, qid))

	s.mu.Lock()
	defer s.mu.Unlock()
	var in exec.EpisodeInput
	allocs := testing.AllocsPerRun(50, func() { in = s.takeVectorLocked(inst) })
	if in.N != 16 || in.Final == nil {
		t.Fatalf("dispatch handed out %d rows, final set %v; want 16 rows with the query final", in.N, in.Final)
	}
	if allocs != 2 {
		t.Errorf("dispatch allocates %.1f objects/op, want 2 (active and final sets)", allocs)
	}
}

func TestSchedVtimeFloorOnRejoin(t *testing.T) {
	s, _ := schedSession(t, 8, Config{})
	qa, err := s.SubmitLiveMeta(singleRel("d1"), SubmitMeta{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}

	s.mu.Lock()
	// Tenant a accumulates service, then drains.
	s.chargeServiceLocked(qa, 1<<20)
	va := s.tenants[s.tenantIDs["a"]].vtime
	s.releaseMetaLocked(qa)
	s.mu.Unlock()

	// A late joiner must start at the floor (a's vtime, the only tenant),
	// not at 0 — otherwise it would cash in service it never requested.
	qb, err := s.SubmitLiveMeta(singleRel("d2"), SubmitMeta{Tenant: "b"})
	if err != nil {
		t.Fatal(err)
	}
	_ = qb
	s.mu.Lock()
	defer s.mu.Unlock()
	vb := s.tenants[s.tenantIDs["b"]].vtime
	if vb != 0 {
		t.Errorf("sole-active joiner vtime = %v, want 0 (no active tenants)", vb)
	}
	// And when a rejoins while b is active, a is floored to b's vtime.
	s.chargeServiceLocked(qb, 4096)
	qa2, _, err2 := s.b.Extend(singleRel("d1"))
	if err2 != nil {
		t.Fatal(err2)
	}
	s.registerMetaLocked(qa2, SubmitMeta{Tenant: "a"})
	floored := s.tenants[s.tenantIDs["a"]].vtime
	want := s.tenants[s.tenantIDs["b"]].vtime
	if floored < want || floored < va {
		t.Errorf("rejoining tenant vtime = %v, want >= max(floor %v)", floored, want)
	}
}
