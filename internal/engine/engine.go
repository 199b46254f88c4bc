// Package engine is RouLette's driver: it ingests vectors through circular
// scans in a pruning-aware order, maps episodes onto a worker pool sharing
// STeMs, admits and retires queries at runtime, and reports per-query results
// and execution statistics (§3). There is one execution path: a compiled
// batch is a session whose queries are admitted at construction and which is
// born closed to further submissions; a stream is the same session born open.
package engine

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/cost"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/metrics"
	"github.com/roulette-db/roulette/internal/obs"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/stem"
	"github.com/roulette-db/roulette/internal/storage"
)

// AdmitEvent schedules runtime query admission: the listed queries are
// admitted once Inst has delivered AfterVectors vectors (dynamic workloads,
// §6.2 "Dynamic Opportunities"). QIDs are caller positions — indexes into
// the slice query.Compile numbered — which NewSession maps to query IDs.
type AdmitEvent struct {
	AfterVectors int64
	Inst         query.InstID
	QIDs         []int
}

// Config parameterizes a session. A run is bounded only by the context
// passed to RunContext: episodes are not preemptible, and the scheduler's
// deadline-urgency and starvation thresholds are constants (sched.go).
type Config struct {
	Exec    exec.Options
	Workers int

	// Policy drives planning; nil selects the learned policy with the
	// paper's hyper-parameters.
	Policy policy.Policy

	Model *cost.Model

	// AdmitAt staggers admission of the compiled batch's queries; queries it
	// does not name are admitted at session start.
	AdmitAt []AdmitEvent

	// TrackConvergence records per-episode measured and estimated costs
	// (the Fig. 16 learning curves). Costly on large runs.
	TrackConvergence bool

	// TraceEpisodes, when positive, makes every worker record its episodes'
	// execution logs and totals on the flight recorder (obs.KAction,
	// obs.KEpisodeWork) and sizes the recorder's rings to keep about that
	// many episodes; Session.Trace decodes them back. Public callers reach
	// it through roulette.Options.TraceEpisodes.
	TraceEpisodes int

	// Streaming says whether the session is born open or born closed, and
	// nothing else. A streaming session accepts SubmitLiveMeta until
	// CloseSubmit: its idle workers wait for submissions, a between-episodes
	// collector reclaims retired queries' STeM entries, policy state and query
	// IDs while it is open, and RunContext returns aggregates only (per-query
	// outcomes went through OnRetire). A non-streaming session is closed from the
	// start: it runs its compiled batch to completion, never collects — so
	// sources and STeMs stay readable after the run — and RunContext returns
	// per-query counts and status.
	Streaming bool

	// OnRetire delivers each query's terminal status. It is called outside
	// the session mutex, exactly once per admitted query, as soon as the
	// query's episodes drain — not at session end. The query's source still
	// holds its routed rows at that point. Nil is allowed.
	OnRetire func(qid int, st QueryStatus)

	// Logger receives structured diagnostics (stall watchdog reports,
	// degraded-mode warnings). Nil discards.
	Logger *slog.Logger

	// StallWatchdog is the period of the self-diagnosis watchdog: every
	// period it runs Diagnose — which flags open episodes older than
	// max(1s, period) — and logs one structured report per finding through
	// Logger. It only reports; 0 disables the watchdog.
	StallWatchdog time.Duration

	// PolicySweep runs at the start of a GC finish pass, before retired
	// queries are unwired from the batch and pruned from the policy — the
	// last moment the learned state about the swept queries is still
	// addressable by live positional IDs — and once more when the worker pool
	// exits, for the queries that retired after the session closed (all of
	// them, on a session born closed). The policy-persistence layer snapshots
	// the Q-table here. Called under the session mutex (between episodes,
	// never on the hot path): keep it proportional to the policy's table size
	// and do not call back into the session.
	PolicySweep func(b *query.Batch, ctx *exec.Context, live bitset.Set)
}

// ConvergencePoint is one episode's measured cost and the policy's estimate
// of the minimum achievable cost at the episode's start state.
type ConvergencePoint struct {
	Episode   int64
	Measured  float64
	Estimated float64
}

// FaultKind classifies an episode fault.
type FaultKind int

// Episode fault classes.
const (
	// FaultPanic is a panic recovered inside an episode (including hook-
	// injected crashes).
	FaultPanic FaultKind = iota
	// FaultInsert is a STeM insertion failure reported by the executor.
	FaultInsert
)

// String names the fault class.
func (k FaultKind) String() string {
	switch k {
	case FaultPanic:
		return "panic"
	case FaultInsert:
		return "insert"
	}
	return "unknown"
}

// EpisodeError records one failed episode. The episode's vector (FirstVID,
// NumVIDs on Inst) is quarantined — it is never retried — and every query
// that was executing the episode (Queries) is marked failed; queries not in
// the episode's active set are unaffected and drain normally.
type EpisodeError struct {
	Kind    FaultKind
	Inst    query.InstID
	Slot    stem.Slot
	Queries []int // query IDs active in the episode (query.Batch.Pos gives their caller positions)

	// FirstVID/NumVIDs identify the quarantined input vector.
	FirstVID int32
	NumVIDs  int

	// Panic and Stack hold the recovered value and goroutine stack for
	// FaultPanic; Err holds the executor error for FaultInsert.
	Panic any
	Stack string
	Err   error
}

// Error renders the fault.
func (e *EpisodeError) Error() string {
	switch e.Kind {
	case FaultPanic:
		return fmt.Sprintf("engine: episode panic on instance %d (slot %d, queries %v): %v", e.Inst, e.Slot, e.Queries, e.Panic)
	case FaultInsert:
		return fmt.Sprintf("engine: episode insert fault on instance %d (slot %d, queries %v): %v", e.Inst, e.Slot, e.Queries, e.Err)
	}
	return "engine: unknown episode fault"
}

// Unwrap exposes the underlying executor error, if any.
func (e *EpisodeError) Unwrap() error { return e.Err }

// QueryStatus reports one query's outcome in a finished (possibly cancelled
// or faulted) session.
type QueryStatus struct {
	// Completed means the query's scans all drained and its count in
	// Results.Counts is exact.
	Completed bool
	// Err explains why an uncompleted query did not finish: an
	// *EpisodeError for queries caught in a faulted episode, or the
	// context error for queries cut short by cancellation.
	Err error
}

// Results summarizes a finished session run. Per-query slices are indexed
// by caller position (query.Batch.Pos), not by query ID.
type Results struct {
	Counts      []int64 // per-query SPJ output tuples
	Elapsed     time.Duration
	Episodes    int64
	JoinTuples  int64 // intermediate join tuples (the Fig. 13 metric)
	Convergence []ConvergencePoint

	// Partial is set when at least one query did not complete (the session
	// was cancelled, timed out, or lost episodes to faults). Counts of
	// uncompleted queries are lower bounds, not exact results.
	Partial bool
	// Status has one entry per query.
	Status []QueryStatus
	// Faults lists the quarantined episodes, in recording order.
	Faults []EpisodeError

	// Stats is the execution breakdown; set on every batch, nil on a stream.
	Stats *BatchStats
}

// scanState tracks one instance's circular scan and the queries using it.
type scanState struct {
	scan      *storage.CircularScan
	rank      int
	active    bitset.Set // queries currently scanning
	remaining []int      // per query: tuples still to deliver (admitted only)
	doneQ     bitset.Set // queries that completed this scan
	flight    []int32    // per query: in-flight episodes of this scan carrying its bit
	delivered int64      // vectors delivered
	inserted  int64      // episodes that completed STeM insertion
}

func (s *scanState) done() bool { return s.active.Empty() }

// newScanState builds an empty scan-state sized to the query-ID capacity.
func newScanState(scan *storage.CircularScan, qcap int) *scanState {
	return &scanState{
		scan:      scan,
		active:    bitset.New(qcap),
		remaining: make([]int, qcap),
		doneQ:     bitset.New(qcap),
		flight:    make([]int32, qcap),
	}
}

// Session executes one compiled batch, extended by live submissions while
// it is open. Sessions are single-use: Run (or RunContext) may be called at
// most once.
type Session struct {
	b   *query.Batch
	cfg Config
	ctx *exec.Context
	pol policy.Policy

	started atomic.Bool

	mu       sync.Mutex
	runCtx   context.Context
	scans    []*scanState
	admitted bitset.Set
	failed   bitset.Set // queries that failed: cancelled, shed or faulted (failLocked)
	failErr  []error    // per query: the first cause that failed it
	faults   []EpisodeError
	pending  []AdmitEvent
	rrCursor int
	episode  int64
	conv     []ConvergencePoint

	// Lifecycle. cond (on mu) wakes idle workers on submission, episode
	// completion, close and cancellation.
	cond        *sync.Cond
	closed      bool       // no more submissions: born so, or CloseSubmit called
	inFlight    int        // episodes handed out, not yet finished
	outstanding []int32    // per query: in-flight episodes carrying its bit
	scansLeft   []int32    // per query: its instances whose scan has not completed for it (not in doneQ)
	retired     bitset.Set // retired queries awaiting a GC pass
	gc          gcState
	gcLastEp    int64      // episode count at the last busy-path GC quantum
	cbsQueued   []func()   // retirement callbacks awaiting execution
	cbsActive   int        // callbacks taken but not finished executing
	cbPending   bitset.Set // queries whose OnRetire callback has not finished

	// Admission-latency accounting of live submissions: submit time per
	// query and the set still awaiting their first scheduled episode.
	qSubmitNs  []int64
	qFirstWait bitset.Set

	// Tenant-aware scheduler (see sched.go).
	tenantIDs    map[string]int
	tenants      []tenantState
	qTenant      []int32 // per query: tenant slot
	qPriority    []int32 // per query: scheduling lane
	qDeadline    []int64 // per query: absolute deadline (unixnano; 0 = none)
	laneLive     int     // live queries in a non-default priority lane
	deadlineLive int     // live queries carrying a deadline
	nextDeadline int64   // earliest live deadline (unixnano; 0 = none)
	shedCount    int64   // queries shed mid-flight by deadline expiry
	starveBoosts int64   // starvation-watchdog activations

	// The scheduler's thresholds (defaultDeadlineUrgency,
	// defaultStarveEpisodes); only the package's tests overwrite them.
	deadlineUrgency time.Duration
	starveEpisodes  int64

	// Stats accounting, under mu.
	startAt      time.Time
	qEpisodes    []int64         // per query: episodes whose active set included it
	qElapsed     []time.Duration // per query: start → last vector scheduled
	lastSig      []uint64        // per instance: previous episode's plan signature
	planSwitches int64

	// Flight recorder & introspection (see debug.go). rec is the session's
	// own recorder (newRecorder), nil on an untraced batch, with one ring per
	// worker (index = worker id) and the control plane's ring last. workerEp
	// tracks each worker's currently open episode, which feeds DebugSnapshot
	// and the stall watchdog. qUrgent marks queries already promoted into the
	// urgency lane so the promotion is recorded once.
	rec      *obs.Recorder
	logger   *slog.Logger
	workerEp []workerEpisode
	qUrgent  bitset.Set
}

// workerEpisode is one worker's in-flight episode, stamped under the
// session mutex when the vector is handed out and cleared when the episode
// completes. active is the episode's own query set (takeVectorLocked hands
// out a private clone nothing mutates), so it names every blocking query.
type workerEpisode struct {
	inst    int32
	slot    int64
	startNs int64
	active  bitset.Set
	open    bool
}

// gcState is the garbage collector's cursor. GC runs in quanta between
// episodes, concurrently with in-flight episodes (see gcQuantumLocked):
// each quantum sweeps one STeM, clearing the retired snapshot's bits and
// compacting it when it became mostly dead; the final quantum retires the
// queries from the batch's shared operators, prunes the policy, and
// recycles the query IDs.
type gcState struct {
	running  bool
	sweeping bool       // a worker is sweeping inst with the session mutex released
	active   bitset.Set // snapshot of retired queries this pass is clearing
	inst     int        // next instance to sweep
}

// gcEvery paces concurrent GC on the busy path: a worker that finds both a
// runnable scan and pending GC work runs one GC quantum every gcEvery
// episodes before taking its vector, so reclamation progresses while the
// pool stays saturated instead of waiting for an idle moment.
const gcEvery = 4

// NewSession compiles the execution context and scan plan for batch b.
func NewSession(b *query.Batch, db *storage.Database, cfg Config) (*Session, error) {
	ctx, err := exec.NewContext(b, db, cfg.Exec, cfg.Model)
	if err != nil {
		return nil, err
	}
	pol := cfg.Policy
	if pol == nil {
		pol = qlearn.New(qlearn.DefaultConfig())
	}
	// Per-query state is sized to the batch's query-ID capacity (== b.N for
	// one-shot batches) so live submissions never resize anything.
	qcap := b.QCap()
	s := &Session{
		b: b, cfg: cfg, ctx: ctx, pol: pol,
		closed:      !cfg.Streaming,
		admitted:    bitset.New(qcap),
		failed:      bitset.New(qcap),
		failErr:     make([]error, qcap),
		outstanding: make([]int32, qcap),
		scansLeft:   make([]int32, qcap),
		retired:     bitset.New(qcap),
	}
	for _, ev := range cfg.AdmitAt {
		qids := make([]int, len(ev.QIDs))
		for i, p := range ev.QIDs {
			qids[i] = b.QIDAt(p)
		}
		ev.QIDs = qids
		s.pending = append(s.pending, ev)
	}
	s.cond = sync.NewCond(&s.mu)
	s.workerEp = make([]workerEpisode, cfg.workers())
	s.gc.active = bitset.New(qcap)
	s.cbPending = bitset.New(qcap)
	s.rec = newRecorder(&s.cfg, b, ctx)
	s.logger = cfg.Logger
	if s.logger == nil {
		s.logger = slog.New(discardHandler{})
	}
	s.initSchedLocked(qcap)
	s.qSubmitNs = make([]int64, qcap)
	s.qFirstWait = bitset.New(qcap)
	s.qEpisodes = make([]int64, qcap)
	s.qElapsed = make([]time.Duration, qcap)
	s.lastSig = make([]uint64, query.MaxInstances)

	s.addScansLocked()

	// The compiled queries run under the default submission metadata;
	// everything not covered by an AdmitEvent is activated now.
	deferred := bitset.New(b.N)
	for _, ev := range s.pending {
		for _, qid := range ev.QIDs {
			deferred.Add(qid)
		}
	}
	for qid := 0; qid < b.N; qid++ {
		if !deferred.Contains(qid) {
			s.activateLocked(qid, SubmitMeta{}, 0)
		}
	}
	return s, nil
}

// addScansLocked gives every instance the context gained since the last
// call its circular scan, then re-ranks all scans: new edges can change
// existing instances' pruning order.
func (s *Session) addScansLocked() {
	for i := len(s.scans); i < len(s.ctx.Tables); i++ {
		// NewContext made VectorSize positive, so this cannot fail.
		scan, err := storage.NewCircularScan(s.ctx.Tables[i].NumRows(), s.ctx.Opt.VectorSize)
		if err != nil {
			panic(err)
		}
		s.scans = append(s.scans, newScanState(scan, s.b.QCap()))
	}
	ranks := RankScans(s.b, s.ctx)
	for i, st := range s.scans {
		st.rank = ranks[i]
	}
}

// Context exposes the session's execution context (sources, stats).
func (s *Session) Context() *exec.Context { return s.ctx }

// Policy returns the planning policy in use.
func (s *Session) Policy() policy.Policy { return s.pol }

// WithCompiled runs fn under the session mutex with the compiled batch,
// the execution context, and the currently admitted query set. It is the
// safe way to inspect (or warm-start) the policy against the
// live positional ID spaces: between episodes the batch and context are
// stable, and fn observes them without racing admissions or GC. fn must
// not block or call back into the session.
func (s *Session) WithCompiled(fn func(b *query.Batch, ctx *exec.Context, admitted bitset.Set)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.b, s.ctx, s.admitted)
}

// activateLocked is the one way a query starts scanning, whether it was
// compiled into the batch (activated at construction or staged by an
// AdmitEvent) or submitted live. It registers the query's scheduler
// metadata, admits it on every one of its instances' scans and retires it
// at once if all of them are empty. submitNs, non-zero for live
// submissions only, starts the submit-to-first-episode latency timer. A
// live query's context view was published before this runs, so no episode
// can carry its bit without seeing it (publish-then-advance).
func (s *Session) activateLocked(qid int, m SubmitMeta, submitNs int64) {
	if s.admitted.Contains(qid) {
		return
	}
	s.recCtl(obs.KAdmit, int64(qid), 0, 0, 0)
	s.registerMetaLocked(qid, m)
	if submitNs != 0 {
		s.qSubmitNs[qid] = submitNs
		s.qFirstWait.Add(qid)
	}
	s.admitted.Add(qid)
	insts := s.b.QueryInsts(qid)
	s.scansLeft[qid] = int32(len(insts))
	for _, inst := range insts {
		st := s.scans[inst]
		st.active.Add(qid)
		st.remaining[qid] = st.scan.Rows()
		if st.scan.Rows() == 0 {
			st.active.Remove(qid)
			st.doneQ.Add(qid)
			s.scansLeft[qid]--
		}
	}
	s.maybeRetireLocked(qid) // zero-row relations: the query is born drained
}

// noteEpisodeLocked stamps worker id's open episode for the debug
// snapshot and stall diagnosis. Array writes only; no allocation.
func (s *Session) noteEpisodeLocked(id int, in exec.EpisodeInput) {
	s.workerEp[id] = workerEpisode{
		inst:    int32(in.Inst),
		slot:    int64(in.Slot),
		startNs: time.Now().UnixNano(),
		active:  in.Active,
		open:    true,
	}
}

// fireAdmissionsLocked activates the queries of every AdmitEvent whose trigger
// instance has delivered enough vectors — or, under force, of every event
// still pending (the guard against a trigger instance that went idle first).
func (s *Session) fireAdmissionsLocked(force bool) {
	kept := s.pending[:0]
	for _, ev := range s.pending {
		if force || s.scans[ev.Inst].delivered >= ev.AfterVectors {
			for _, qid := range ev.QIDs {
				s.activateLocked(qid, SubmitMeta{}, 0)
			}
		} else {
			kept = append(kept, ev)
		}
	}
	s.pending = kept
}

// takeVectorLocked pulls one vector from inst's circular scan, annotates it
// with the active query set and the set no later probe can reach (Final),
// and updates completion accounting.
func (s *Session) takeVectorLocked(inst query.InstID) exec.EpisodeInput {
	st := s.scans[inst]
	start, n := st.scan.Next()
	active := st.active.Clone()
	st.delivered++
	s.inFlight++

	// Completion: every active query sees each vector exactly once per
	// revolution (admission is vector-aligned).
	var finished []int
	var final bitset.Set
	st.active.ForEach(func(qid int) {
		// Build rule (DESIGN.md §10): qid is final here when inst is the last
		// of its scans still running (an active query has not completed inst)
		// and every in-flight episode carrying it is on inst, which never
		// probes its own STeM — so no probe for qid can reach these entries.
		if s.scansLeft[qid] == 1 && s.outstanding[qid] == st.flight[qid] {
			if final == nil {
				final = bitset.New(s.b.QCap())
			}
			final.Add(qid)
		}
		s.outstanding[qid]++
		st.flight[qid]++
		s.chargeServiceLocked(qid, n)
		if s.qFirstWait.Contains(qid) {
			// First episode carrying a live-admitted query's bit: record the
			// submit-to-first-episode latency (admission responsiveness).
			s.qFirstWait.Remove(qid)
			metrics.Default().AdmitLatency.Add((time.Now().UnixNano() - s.qSubmitNs[qid]) / 1e3)
		}
		s.qEpisodes[qid]++
		st.remaining[qid] -= n
		if st.remaining[qid] <= 0 {
			finished = append(finished, qid)
		}
	})
	for _, qid := range finished {
		st.active.Remove(qid)
		st.doneQ.Add(qid)
		s.scansLeft[qid]--
		// Per-query elapsed: stamped when the query's last vector is handed
		// out (the in-flight episode's tail is not included; observability
		// precision, not an exactness contract).
		if s.queryDrainedLocked(qid) {
			s.qElapsed[qid] = time.Since(s.startAt)
		}
	}

	slot := stem.Slot(s.episode)
	s.episode++
	return exec.EpisodeInput{
		Inst:   inst,
		First:  int32(start),
		N:      n,
		Active: active,
		Final:  final,
		Slot:   slot,
		SelOps: s.ctx.SelOpsFor(inst, s.prunableLocked),
	}
}

// prunableLocked returns the queries eligible for pruning over edgeID
// against other's STeM: queries containing the edge whose scan of other is
// complete, provided every delivered vector of other has been inserted.
func (s *Session) prunableLocked(edgeID int, other query.InstID) bitset.Set {
	st := s.scans[other]
	if !st.done() || st.inserted < st.delivered {
		return nil
	}
	return bitset.And(st.doneQ, s.b.Edges[edgeID].Queries)
}

// costEstimator is the optional interface learned policies expose for the
// convergence experiment.
type costEstimator interface {
	EstimatedBestCost(phase policy.Phase, inst query.InstID, lineage uint64, q bitset.Set, cands []int) float64
}

// Run executes the session to completion and returns per-query results.
func (s *Session) Run() (*Results, error) { return s.RunContext(context.Background()) }

// RunContext executes the session under ctx. Cancellation is cooperative:
// workers stop picking up new episodes once ctx is done, in-flight episodes
// finish, and the session returns partial results (Results.Partial with
// per-query status) rather than an error. Episodes are the fault boundary:
// a panicking episode is recovered, recorded in Results.Faults, and fails
// only the queries it was executing; the rest of the batch drains normally.
func (s *Session) RunContext(ctx context.Context) (*Results, error) {
	if !s.started.CompareAndSwap(false, true) {
		return nil, errors.New("engine: session already run (sessions are single-use)")
	}
	// The run's own cancel stops the stall watchdog once the pool drains.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	s.mu.Lock()
	s.runCtx, s.startAt = ctx, start
	s.mu.Unlock()
	// Workers wait on the condvar when no scan is runnable; wake them when
	// the run's context is cancelled so they observe it and exit.
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer stop()

	if s.cfg.StallWatchdog > 0 {
		go s.watchdog(ctx, s.cfg.StallWatchdog)
	}

	var wg sync.WaitGroup
	for wk := 0; wk < s.cfg.workers(); wk++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s.runWorker(id)
		}(wk)
	}
	wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	if cb := s.cfg.PolicySweep; cb != nil && !s.retired.Empty() {
		// Queries that retired after the session closed were never swept;
		// this is their export.
		cb(s.b, s.ctx, s.admitted)
	}
	if s.cfg.Streaming {
		// Per-query outcomes were already published through OnRetire as each
		// query retired; the session-level result carries only aggregates.
		res := &Results{
			Elapsed:    time.Since(start),
			Episodes:   s.ctx.Stats.Episodes.Load(),
			JoinTuples: s.ctx.Stats.JoinOut.Load(),
			Faults:     s.faults,
			Partial:    ctx.Err() != nil,
		}
		s.foldRegistryLocked(res)
		return res, nil
	}
	res := &Results{
		Counts:      make([]int64, s.b.N),
		Elapsed:     time.Since(start),
		Episodes:    s.ctx.Stats.Episodes.Load(),
		JoinTuples:  s.ctx.Stats.JoinOut.Load(),
		Convergence: s.conv,
		Status:      make([]QueryStatus, s.b.N),
		Faults:      s.faults,
	}
	cancelErr := ctx.Err()
	for qid := range res.Counts {
		p := s.b.Pos(qid)
		res.Counts[p] = s.ctx.Sources[qid].Count()
		switch {
		case s.failed.Contains(qid):
			res.Status[p] = QueryStatus{Err: s.failErr[qid]}
		case s.admitted.Contains(qid) && s.queryDrainedLocked(qid):
			res.Status[p] = QueryStatus{Completed: true}
		default:
			err := cancelErr
			if err == nil {
				err = errors.New("engine: query did not complete")
			}
			res.Status[p] = QueryStatus{Err: err}
		}
		if !res.Status[p].Completed {
			res.Partial = true
		}
	}
	res.Stats = s.buildStatsLocked(res)
	s.foldRegistryLocked(res)
	if cancelErr == nil && !s.admitted.Equal(bitset.NewFull(s.b.N)) {
		return res, fmt.Errorf("engine: run finished with unadmitted queries")
	}
	return res, nil
}

// queryDrainedLocked reports whether every scan of admitted query qid's
// instances has delivered all of the query's vectors. Workers only exit
// after finishing their in-flight episode, so once the pool has drained
// this implies the query's result is complete.
func (s *Session) queryDrainedLocked(qid int) bool { return s.scansLeft[qid] == 0 }

// runWorker is one worker's episode loop. id is the worker's index: its
// flight-recorder ring and its workerEp slot.
func (s *Session) runWorker(id int) {
	// Worker construction reads batch shape (query capacity, instance
	// count); a SubmitLiveMeta may be extending the batch concurrently with pool
	// startup, so size the worker under the mutex.
	s.mu.Lock()
	w := exec.NewWorker(s.ctx, s.pol)
	s.mu.Unlock()
	for {
		in, ok := s.nextEpisode(id)
		if !ok {
			return
		}
		// The estimate is read before the episode runs (the policy's
		// current belief about the best join-phase plan, per input
		// tuple) and scaled afterwards by the actual join input size,
		// so the two Fig. 16 series are directly comparable.
		var estPerTuple float64
		if s.cfg.TrackConvergence {
			if ce, ok := s.pol.(costEstimator); ok {
				g := s.ctx.Graph() // published snapshot; no batch lock needed
				cands := g.Candidates(nil, 1<<in.Inst, in.Active)
				estPerTuple = ce.EstimatedBestCost(policy.JoinPhase, 0, 1<<in.Inst, in.Active, cands)
			}
		}
		if s.rec != nil {
			var w0 uint64
			if len(in.Active) > 0 {
				w0 = in.Active[0]
			}
			s.rec.Record(id, obs.KEpisodeStart,
				int64(in.Inst), int64(in.Slot), int64(w0), int64(in.Active.Count()))
		}
		epStart := time.Now()
		rep, err := s.runEpisode(w, in)
		dur := time.Since(epStart).Nanoseconds()
		if s.cfg.TraceEpisodes > 0 {
			// The worker's execution log — what the policy just learned from —
			// is the episode's action record; a faulted episode keeps the
			// entries it logged before the fault.
			entries := w.Log()
			for i := range entries {
				e := &entries[i]
				s.rec.Record(id, obs.KAction, int64(e.Phase), int64(e.Op), int64(e.NIn), int64(e.NOut))
			}
			var fault int64
			if err != nil {
				fault = int64(err.Kind) + 1
			}
			s.rec.Record(id, obs.KEpisodeWork, int64(in.N), int64(rep.JoinInput),
				int64(math.Float64bits(rep.MeasuredCost)), fault)
		}
		s.rec.Record(id, obs.KEpisodeEnd, int64(in.Inst), int64(in.Slot), dur, int64(rep.PlanSig))
		s.mu.Lock()
		if rep.PlanSig != 0 {
			if prev := s.lastSig[in.Inst]; prev != 0 && prev != rep.PlanSig {
				s.planSwitches++
			}
			s.lastSig[in.Inst] = rep.PlanSig
		}
		if err != nil {
			s.recordFaultLocked(in, err)
		} else {
			s.scans[in.Inst].inserted++
			if s.cfg.TrackConvergence {
				s.conv = append(s.conv, ConvergencePoint{
					Episode:   int64(in.Slot),
					Measured:  rep.MeasuredJoinCost,
					Estimated: estPerTuple * float64(rep.JoinInput),
				})
			}
		}
		s.inFlight--
		s.workerEp[id].open = false
		st := s.scans[in.Inst]
		in.Active.ForEach(func(qid int) {
			s.outstanding[qid]--
			st.flight[qid]--
			s.maybeRetireLocked(qid)
		})
		cbs := s.takeCallbacksLocked()
		s.cond.Broadcast()
		s.mu.Unlock()
		s.runCallbacks(cbs)
	}
}

// runEpisode executes one episode behind a panic barrier. An episode leaves
// nothing to publish on any exit path: its insert, if it made one, was
// visible from its record on. An episode has at most one fault — a panic
// or its insert error — which its worker records.
func (s *Session) runEpisode(w *exec.Worker, in exec.EpisodeInput) (rep exec.EpisodeReport, err *EpisodeError) {
	defer func() {
		if r := recover(); r != nil {
			err = s.newEpisodeError(in, FaultPanic)
			err.Panic, err.Stack = r, string(debug.Stack())
		}
	}()
	rep, execErr := w.RunEpisode(in)
	if execErr != nil {
		err = s.newEpisodeError(in, FaultInsert)
		err.Err = execErr
	}
	return rep, err
}

// newEpisodeError captures the episode's identity and quarantined vector.
func (s *Session) newEpisodeError(in exec.EpisodeInput, kind FaultKind) *EpisodeError {
	ee := &EpisodeError{
		Kind:    kind,
		Inst:    in.Inst,
		Slot:    in.Slot,
		Queries: in.Active.IDs(),
		NumVIDs: in.N,
	}
	if in.N > 0 {
		ee.FirstVID = in.First
	}
	return ee
}

// recordFaultLocked quarantines a faulted episode: it is appended to the
// fault log and every query in its active set fails (failLocked), so the
// surviving queries drain without wasted work. The episode still carries
// those queries, so they retire when it completes.
func (s *Session) recordFaultLocked(in exec.EpisodeInput, ee *EpisodeError) {
	s.faults = append(s.faults, *ee)
	in.Active.ForEach(func(qid int) { s.failLocked(qid, ee) })
}

// terminalLocked reports whether qid can no longer fail: it is not admitted
// (never, or no longer), has already failed, or has retired.
func (s *Session) terminalLocked(qid int) bool {
	return !s.admitted.Contains(qid) || s.failed.Contains(qid) ||
		s.retired.Contains(qid) || (s.gc.running && s.gc.active.Contains(qid))
}

// failLocked is the one way a query fails — cancellation, a mid-flight
// deadline shed, an episode fault. Unless qid is already terminal, it
// records err as the query's cause and drops the query from every scan's
// active set, so its remaining vectors are never handed out; the first
// cause sticks. The query retires once the episodes carrying it drain
// (maybeRetireLocked). It reports whether it failed the query.
func (s *Session) failLocked(qid int, err error) bool {
	if s.terminalLocked(qid) {
		return false
	}
	s.failed.Add(qid)
	s.failErr[qid] = err
	for _, inst := range s.b.QueryInsts(qid) {
		s.scans[inst].active.Remove(qid)
	}
	return true
}

// RankScans orders circular-scan initiation for pruning (§5.2): relations
// smaller than all their joinable unranked neighbors rank first (dimension
// tables of star/snowflake schemas), postponing large pruning-target
// relations. Ties break by size so progress is guaranteed.
func RankScans(b *query.Batch, ctx *exec.Context) []int {
	n := len(b.Insts)
	ranks := make([]int, n)
	ranked := make([]bool, n)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = ctx.Tables[i].NumRows()
	}
	neighbors := make([][]query.InstID, n)
	for _, e := range b.Edges {
		neighbors[e.A] = append(neighbors[e.A], e.B)
		neighbors[e.B] = append(neighbors[e.B], e.A)
	}
	for rank, left := 1, n; left > 0; rank++ {
		var marked []int
		for i := 0; i < n; i++ {
			if ranked[i] {
				continue
			}
			smaller := true
			for _, nb := range neighbors[i] {
				if !ranked[nb] && rows[nb] <= rows[i] && int(nb) != i {
					if rows[nb] < rows[i] || int(nb) < i {
						smaller = false
						break
					}
				}
			}
			if smaller {
				marked = append(marked, i)
			}
		}
		if len(marked) == 0 {
			// Fallback: mark the globally smallest unranked instance.
			best := -1
			for i := 0; i < n; i++ {
				if !ranked[i] && (best == -1 || rows[i] < rows[best]) {
					best = i
				}
			}
			marked = []int{best}
		}
		for _, i := range marked {
			ranks[i] = rank
			ranked[i] = true
			left--
		}
	}
	return ranks
}
