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

// TestSchedShedKeepsLaterDeadlines sheds only the query whose deadline has
// passed: a later deadline survives the pass, and the next-deadline cursor
// moves to it, so the following pick sheds nothing.
func TestSchedShedKeepsLaterDeadlines(t *testing.T) {
	s, _ := schedSession(t, 8, Config{})
	later := time.Now().Add(time.Hour)
	live, err := s.SubmitLiveMeta(singleRel("d1"), SubmitMeta{Tenant: "live", Deadline: later})
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
	defer s.mu.Unlock()
	if best := s.pickScanLocked(); best != scanOf(s, live) {
		t.Errorf("picked scan %d, want the live query's scan %d", best, scanOf(s, live))
	}
	if !s.failed.Contains(dead) || s.failed.Contains(live) {
		t.Errorf("failed set wrong: dead %d failed=%v, live %d failed=%v",
			dead, s.failed.Contains(dead), live, s.failed.Contains(live))
	}
	if s.shedCount != 1 || s.deadlineLive != 1 || s.nextDeadline != later.UnixNano() {
		t.Errorf("after shed: shedCount=%d deadlineLive=%d nextDeadline=%d, want 1, 1, %d",
			s.shedCount, s.deadlineLive, s.nextDeadline, later.UnixNano())
	}
	s.pickScanLocked()
	if s.shedCount != 1 {
		t.Errorf("shedCount = %d after a second pick, want 1: the live deadline is an hour out", s.shedCount)
	}
}

// TestSchedShedErrorNamesItsTenant checks that each query shed in one pass
// carries its own tenant in its ShedError: the per-query tenant slice is
// the only place the engine keeps a tenant name.
func TestSchedShedErrorNamesItsTenant(t *testing.T) {
	errs := map[int]error{}
	s, _ := schedSession(t, 8, Config{
		OnRetire: func(qid int, st QueryStatus) { errs[qid] = st.Err },
	})
	past := time.Now().Add(-time.Millisecond)
	want := map[int]string{}
	for i, tenant := range []string{"a", "b", ""} {
		qid, err := s.SubmitLiveMeta(singleRel([]string{"d1", "d2", "fact"}[i]), SubmitMeta{
			Tenant: tenant, Deadline: past,
		})
		if err != nil {
			t.Fatal(err)
		}
		want[qid] = tenant
	}

	s.mu.Lock()
	if best := s.pickScanLocked(); best != -1 {
		t.Errorf("picked scan %d, want -1: every query was shed", best)
	}
	cbs := s.takeCallbacksLocked()
	s.mu.Unlock()
	s.runCallbacks(cbs)

	if len(errs) != len(want) {
		t.Fatalf("retired %d queries, want %d", len(errs), len(want))
	}
	for qid, tenant := range want {
		var se *admission.ShedError
		if !errors.As(errs[qid], &se) || se.AtSubmit {
			t.Errorf("query %d: error %v, want mid-flight *ShedError", qid, errs[qid])
			continue
		}
		if se.Tenant != tenant {
			t.Errorf("query %d: ShedError tenant %q, want %q", qid, se.Tenant, tenant)
		}
	}
}

// TestSchedNoRunnableScan checks the selector's -1: on a session with no
// query, and once every scan of the only query has been handed out.
func TestSchedNoRunnableScan(t *testing.T) {
	opt := exec.DefaultOptions()
	opt.VectorSize = 16 // four vectors per 64-row dimension scan
	s, _ := schedSession(t, 8, Config{Exec: opt})
	s.mu.Lock()
	if best := s.pickScanLocked(); best != -1 {
		t.Errorf("empty session picked scan %d, want -1", best)
	}
	s.mu.Unlock()

	q, err := s.SubmitLiveMeta(singleRel("d1"), SubmitMeta{})
	if err != nil {
		t.Fatal(err)
	}
	d1 := scanOf(s, q)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < 4; i++ {
		best := s.pickScanLocked()
		if best != d1 {
			t.Fatalf("pick %d chose scan %d, want d1's scan %d", i, best, d1)
		}
		s.takeVectorLocked(query.InstID(best))
	}
	if best := s.pickScanLocked(); best != -1 {
		t.Errorf("picked scan %d after d1's four vectors were handed out, want -1", best)
	}
}

// TestSchedWeightIsInert pins the SubmitMeta.Weight shim: two sessions given
// the same queries under very different weights pick the same scans in the
// same order, vector by vector.
func TestSchedWeightIsInert(t *testing.T) {
	picks := func(weights []float64) []int {
		opt := exec.DefaultOptions()
		opt.VectorSize = 16
		s, _ := schedSession(t, 8, Config{Exec: opt})
		for i, table := range []string{"d1", "d2", "fact"} {
			if _, err := s.SubmitLiveMeta(singleRel(table), SubmitMeta{
				Tenant: table, Weight: weights[i],
			}); err != nil {
				t.Fatal(err)
			}
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		var seq []int
		for best := s.pickScanLocked(); best >= 0; best = s.pickScanLocked() {
			seq = append(seq, best)
			s.takeVectorLocked(query.InstID(best))
		}
		return seq
	}
	even := picks([]float64{1, 1, 1})
	skewed := picks([]float64{0, 1000, 0.001})
	if len(even) == 0 || len(even) != len(skewed) {
		t.Fatalf("pick counts differ: %d under equal weights, %d under skewed ones", len(even), len(skewed))
	}
	for i := range even {
		if even[i] != skewed[i] {
			t.Fatalf("pick %d: scan %d under equal weights, %d under skewed ones", i, even[i], skewed[i])
		}
	}
}

// TestSchedStepNoAlloc guards that scan selection adds no allocation to the
// steady-state episode step. A stale next-deadline cursor, as a retirement
// leaves it, makes every pick run the deadline scan too; with nothing
// expired, both are array reads and writes only.
func TestSchedStepNoAlloc(t *testing.T) {
	s, _ := schedSession(t, 8, Config{})
	if _, err := s.SubmitLiveMeta(singleRel("d1"), SubmitMeta{Tenant: "a"}); err != nil {
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
		s.nextDeadline = 1
		if s.pickScanLocked() < 0 {
			t.Fatal("no scan to pick")
		}
	})
	if allocs != 0 {
		t.Errorf("scheduler step allocates %.1f objects/op, want 0", allocs)
	}
	if s.shedCount != 0 {
		t.Errorf("shedCount = %d, want 0: no deadline has passed", s.shedCount)
	}
}

// TestSchedRankOrderAcrossTenants pins the one selector: whatever service
// each tenant has had and whatever deadlines are live, the pick is the
// lowest-rank incomplete scan, rotating among equal ranks (§5.2). Tenant
// heavy joins fact with both dimension tables (d1 and d2 rank first, fact
// after them); tenant light scans fact alone under a live deadline. Every
// vector dispatched from a dimension scan is service heavy received and
// light did not, yet light's fact scan waits until both dimension scans
// are done.
func TestSchedRankOrderAcrossTenants(t *testing.T) {
	opt := exec.DefaultOptions()
	opt.VectorSize = 16 // four vectors per 64-row dimension scan
	s, _ := schedSession(t, 8, Config{Exec: opt})
	heavy, err := s.SubmitLiveMeta(&query.Query{
		Rels: []query.RelRef{{Table: "fact"}, {Table: "d1"}, {Table: "d2"}},
		Joins: []query.Join{
			{LeftAlias: "fact", LeftCol: "fk1", RightAlias: "d1", RightCol: "k"},
			{LeftAlias: "fact", LeftCol: "fk2", RightAlias: "d2", RightCol: "k"},
		},
	}, SubmitMeta{Tenant: "heavy"})
	if err != nil {
		t.Fatal(err)
	}
	light, err := s.SubmitLiveMeta(singleRel("fact"), SubmitMeta{
		Tenant: "light", Deadline: time.Now().Add(time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	fact := scanOf(s, light)

	s.mu.Lock()
	defer s.mu.Unlock()
	var dims []int
	for _, inst := range s.b.QueryInsts(heavy) {
		if int(inst) != fact {
			dims = append(dims, int(inst))
		}
	}
	if len(dims) != 2 || s.scans[dims[0]].rank != s.scans[dims[1]].rank || s.scans[dims[0]].rank >= s.scans[fact].rank {
		t.Fatalf("want two dimension scans of one rank below fact's; dims %v, fact %d", dims, fact)
	}
	prev := -1
	for i := 0; i < 8; i++ {
		best := s.pickScanLocked()
		if best != dims[0] && best != dims[1] {
			t.Fatalf("pick %d chose scan %d, want a dimension scan %v before fact %d", i, best, dims, fact)
		}
		if best == prev {
			t.Fatalf("pick %d chose scan %d again, want equal ranks to rotate", i, best)
		}
		prev = best
		s.takeVectorLocked(query.InstID(best))
	}
	if best := s.pickScanLocked(); best != fact {
		t.Fatalf("picked scan %d once the dimension scans were done, want fact %d", best, fact)
	}
	if s.shedCount != 0 {
		t.Errorf("shedCount = %d, want 0: the deadline is an hour out", s.shedCount)
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
