package roulette

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/roulette-db/roulette/internal/admission"
	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/cost"
	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/metrics"
	"github.com/roulette-db/roulette/internal/obs"
	"github.com/roulette-db/roulette/internal/query"
)

// StreamOptions tune a long-lived stream. The embedded Options carry the
// executor and policy knobs; batch-only fields (Admissions,
// TrackConvergence output) do not apply to streams. A stream's counters are
// always on: Stream.StemStats reports live STeM traffic, and Close folds the
// stream's work into the metrics registry.
type StreamOptions struct {
	Options

	// MaxQueries caps the number of concurrently live (submitted, not yet
	// garbage-collected) queries; 0 means 64. Submissions beyond the cap
	// fail with ErrStreamFull until retired queries are reclaimed.
	MaxQueries int

	// Admission enables overload protection: an in-flight cost budget,
	// per-tenant rate limits and deadline shedding at Submit. Nil disables
	// admission control entirely: Submit never returns ErrOverloaded.
	// Either way scans run in rank order, and per-query deadlines
	// (Query.WithDeadline) shed their query once they pass.
	Admission *AdmissionOptions

	// StallWatchdog enables background self-diagnosis: every period the
	// engine looks for episodes running longer than max(1s, period) and
	// logs each finding — naming the blocking instance, worker, and
	// queries — through Options.Logger. It only reports: episodes are not
	// preemptible, and a context deadline on Run is the one way to bound a
	// stream. The same check runs on demand via Stream.Diagnose. 0
	// disables the background check.
	StallWatchdog time.Duration
}

// TenantLimit overrides one tenant's rate limit.
type TenantLimit = admission.TenantLimit

// AdmissionOptions configure a stream's overload protection. Tenants are
// derived from query tags: the prefix before the first '/' (see
// Query.WithTag). The zero value admits everything but still keeps
// per-tenant admission counters and SLO metrics.
type AdmissionOptions struct {
	// MaxInFlightCost bounds the summed estimated cost — in estimated
	// execution nanoseconds, from the engine's cost model over each query's
	// relation cardinalities — of admitted, not-yet-retired queries.
	// Submissions that would exceed it fail fast with ErrOverloaded
	// (reason "budget", with a retry-after hint from the observed drain
	// rate) before the engine is touched. 0 means no budget.
	MaxInFlightCost float64

	// DefaultRate and DefaultBurst are the token-bucket parameters (cost
	// units per second, and bucket capacity) applied to tenants without an
	// explicit TenantLimit. Zero rate means no rate limiting by default.
	DefaultRate  float64
	DefaultBurst float64

	// Tenants overrides rate limits per tenant key.
	Tenants map[string]TenantLimit

	// hooks are the chaos-injection points (internal/faults wires them in
	// white-box tests).
	hooks admission.Hooks
}

// ErrStreamFull is returned by Submit when every query slot is occupied by
// a live or not-yet-reclaimed query.
var ErrStreamFull = errors.New("roulette: stream at capacity (live queries not yet reclaimed)")

// ErrStreamClosed is returned by Submit after Close.
var ErrStreamClosed = errors.New("roulette: stream closed")

// ErrQueryCancelled is the default cancellation cause for Ticket.Cancel.
var ErrQueryCancelled = errors.New("roulette: query cancelled")

// ErrOverloaded is the sentinel every admission rejection matches with
// errors.Is. The concrete error is an *OverloadError carrying the tenant,
// the reason (budget or rate), and a retry-after hint; callers should back
// off for at least the hint before resubmitting.
var ErrOverloaded = admission.ErrOverloaded

// ErrDeadlineShed is the sentinel matched by queries shed for an unmeetable
// deadline — at Submit when the estimated cost already exceeds it, or
// mid-flight when it expires before the query drains. The concrete error is
// a *ShedError.
var ErrDeadlineShed = admission.ErrDeadlineShed

// OverloadError is the typed rejection behind ErrOverloaded.
type OverloadError = admission.OverloadError

// ShedError is the typed error behind ErrDeadlineShed.
type ShedError = admission.ShedError

// Ticket tracks one submitted query through a Stream. Its result is
// delivered the moment the query retires — when its scans drain, it is
// cancelled, or it is caught in a faulted episode — not when the stream
// closes.
type Ticket struct {
	s   *Stream
	qid int
	tag string

	// Admission accounting, released exactly once when the ticket resolves.
	tenant   string
	admCost  float64
	admitted bool // charged to the admission controller
	start    time.Time

	done chan struct{}
	res  QueryResult // set before done closes
}

// Done is closed when the query's result is available.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the query retires and returns its result. If ctx
// expires first, only this query is cancelled — the stream and its other
// queries keep running — and Wait still returns the query's final
// (partial, Aborted) result. The returned error is ctx's error in that
// case, nil otherwise — also when the query completed before the
// cancellation reached it.
func (t *Ticket) Wait(ctx context.Context) (QueryResult, error) {
	select {
	case <-t.done:
		return t.res, nil
	case <-ctx.Done():
		t.Cancel(ctx.Err())
		<-t.done
		if !t.res.Aborted {
			return t.res, nil
		}
		return t.res, ctx.Err()
	}
}

// Cancel marks this query failed with the given cause (nil means
// ErrQueryCancelled). The query retires with a partial count as soon as
// its in-flight episodes drain; the rest of the stream is unaffected.
// Cancelling an already-retired query is a no-op.
func (t *Ticket) Cancel(cause error) {
	select {
	case <-t.done:
		return // retired: its query ID may already serve a later Submit
	default:
	}
	if cause == nil {
		cause = ErrQueryCancelled
	}
	t.s.sess.CancelQuery(t.qid, cause)
}

// Stream is a long-lived execution session: queries are submitted at any
// time, share scans, STeMs and learned planning state with whatever else
// is running, and each retires individually with its own result. A Stream
// is safe for concurrent use.
type Stream struct {
	e    *Engine
	b    *query.Batch
	sess *engine.Session

	mu      sync.Mutex
	tickets map[int]*Ticket
	// pending holds results whose retirement callback ran before Submit
	// registered the ticket (a query can retire inside SubmitLiveMeta itself,
	// e.g. over zero-row relations).
	pending map[int]QueryResult
	resQ    []QueryResult
	resCond *sync.Cond
	closed  bool // Close called: no more submissions
	done    bool // worker pool exited: no more results

	opt     StreamOptions
	adm     *admission.Controller // nil when opt.Admission is nil
	model   *cost.Model           // admission cost estimates
	warm    *warmLink             // nil without Options.PolicyStore on a learned policy
	results chan QueryResult
	resOnce sync.Once
	runDone chan struct{}
	runErr  error
}

// OpenStream starts a long-lived session over the engine's tables. The
// worker pool starts immediately and idles until the first Submit; it
// runs until Close (or ctx cancellation). Streams require an adaptive
// policy — PolicyLearned (default) or PolicyRandom; plan-replay policies
// (Greedy, StitchShare, MatchShare) fix their operator space at open time
// and cannot admit unseen queries.
func (e *Engine) OpenStream(ctx context.Context, o *StreamOptions) (*Stream, error) {
	var opt StreamOptions
	if o != nil {
		opt = *o
	}
	if opt.MaxQueries <= 0 {
		opt.MaxQueries = 64
	}
	if len(opt.Admissions) > 0 {
		return nil, fmt.Errorf("roulette: Admissions are a batch-mode option; streams admit on Submit")
	}

	if opt.Policy != PolicyLearned && opt.Policy != PolicyRandom {
		return nil, fmt.Errorf("roulette: policy %d cannot plan queries it has not seen; streams support PolicyLearned and PolicyRandom", opt.Policy)
	}
	opt.TrackConvergence = false // a per-episode series has no end on a stream

	b := query.NewStreamBatch(opt.MaxQueries)
	cfg, link, err := e.sessionConfig(b, &opt.Options)
	if err != nil {
		return nil, err
	}
	cfg.Streaming = true
	cfg.StallWatchdog = opt.StallWatchdog
	s := &Stream{
		e:       e,
		b:       b,
		opt:     opt,
		warm:    link,
		tickets: make(map[int]*Ticket),
		pending: make(map[int]QueryResult),
		runDone: make(chan struct{}),
	}
	s.model = cfg.Model
	if s.model == nil {
		s.model = cost.Default()
	}
	if a := opt.Admission; a != nil {
		s.adm = admission.NewController(admission.Config{
			MaxInFlightCost: a.MaxInFlightCost,
			DefaultRate:     a.DefaultRate,
			DefaultBurst:    a.DefaultBurst,
			Tenants:         a.Tenants,
			Hooks:           a.hooks,
		})
	}
	s.resCond = sync.NewCond(&s.mu)
	cfg.OnRetire = s.onRetire
	sess, err := engine.NewSession(b, e.db, cfg)
	if err != nil {
		return nil, err
	}
	s.sess = sess
	go func() {
		res, err := sess.RunContext(ctx)

		// A cancelled or deadline-cut run exits with tickets unresolved;
		// resolve them as aborted partial results so no Wait blocks forever.
		cause := err
		if cause == nil && res != nil && res.Partial {
			cause = ctx.Err()
		}
		if cause == nil {
			cause = errors.New("roulette: stream terminated")
		}
		s.mu.Lock()
		orphans := s.tickets
		s.tickets = make(map[int]*Ticket)
		s.closed = true
		s.mu.Unlock()
		for _, t := range orphans {
			qr := QueryResult{Aborted: true, Err: cause}
			if src := sess.Context().Sources[t.qid]; src != nil {
				qr.Count = src.Count()
			}
			s.finish(t, qr)
		}

		s.mu.Lock()
		s.runErr = err
		s.done = true
		s.resCond.Broadcast()
		s.mu.Unlock()
		close(s.runDone)
	}()
	return s, nil
}

// Submit merges one query into the running stream and returns a Ticket
// for its result. The query starts executing immediately, reusing the
// STeM state built by earlier queries over the same relations; it
// rescans each of its relations once from the scan's current position.
//
// With admission control enabled (StreamOptions.Admission), Submit may
// instead fail fast with ErrOverloaded — the stream's in-flight cost budget
// or the tenant's rate limit is exhausted; back off for the OverloadError's
// RetryAfter hint — or with ErrDeadlineShed when the query's estimated cost
// already exceeds its deadline. Both checks run before the engine's worker
// pool is disturbed, so a saturated stream rejects cheaply.
func (s *Stream) Submit(q *Query) (*Ticket, error) {
	cp, err := q.compileCopy(&s.opt.Options)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrStreamClosed
	}
	s.mu.Unlock()

	tenant := ""
	var estCost float64
	if s.adm != nil {
		tenant = admission.TenantOf(q.q.Tag)
	}
	if s.adm != nil || q.deadline > 0 {
		estCost = s.estimateCost(cp)
	}
	var deadline time.Time
	if q.deadline > 0 {
		deadline = time.Now().Add(q.deadline)
		if est := time.Duration(estCost); est > q.deadline {
			// Hopeless: shed now instead of burning episodes on a query
			// that cannot finish in time.
			reg := metrics.Default()
			reg.DeadlineSheds.Add(1)
			reg.Tenant(tenant).Shed.Add(1)
			if s.adm != nil {
				s.adm.RecordShed(tenant)
			}
			s.sess.RecordRefused(obs.KShed, tenant)
			return nil, &ShedError{Tenant: tenant, AtSubmit: true, Deadline: deadline, Estimate: est}
		}
	}
	if s.adm != nil {
		if err := s.adm.Admit(tenant, estCost); err != nil {
			reg := metrics.Default()
			reg.SubmitOverloads.Add(1)
			reg.Tenant(tenant).Rejected.Add(1)
			s.sess.RecordRefused(obs.KReject, tenant)
			return nil, err
		}
		reg := metrics.Default()
		reg.SubmitAdmitted.Add(1)
		reg.Tenant(tenant).Admitted.Add(1)
	}

	if s.sess.FreeQuerySlots() == 0 {
		if s.adm != nil {
			s.adm.Release(tenant, estCost)
		}
		return nil, ErrStreamFull
	}

	meta := engine.SubmitMeta{Tenant: tenant, Deadline: deadline}
	start := time.Now()
	qid, err := s.sess.SubmitLiveMeta(cp, meta)
	if err != nil {
		if s.adm != nil {
			s.adm.Release(tenant, estCost)
		}
		return nil, err
	}
	if s.warm != nil {
		s.sess.WithCompiled(func(b *query.Batch, ctx *exec.Context, admitted bitset.Set) {
			s.warm.importOnAdmit(b, ctx, admitted, 1)
		})
	}
	t := &Ticket{
		s: s, qid: qid, tag: cp.Tag,
		tenant: tenant, admCost: estCost, admitted: s.adm != nil, start: start,
		done: make(chan struct{}),
	}
	s.mu.Lock()
	if qr, ok := s.pending[qid]; ok {
		// Retired before we could register (e.g. empty relations).
		delete(s.pending, qid)
		s.mu.Unlock()
		s.finish(t, qr)
		return t, nil
	}
	s.tickets[qid] = t
	s.mu.Unlock()
	return t, nil
}

// estimateCost estimates a query's execution nanoseconds from the cost
// model and relation cardinalities: one selection pass per relation plus a
// join pass per edge sized by its larger side. Deliberately crude — it only
// needs to be monotone in data size to make budget accounting and
// hopeless-deadline shedding meaningful.
func (s *Stream) estimateCost(q *query.Query) float64 {
	rows := make(map[string]float64, len(q.Rels))
	total := 0.0
	for _, r := range q.Rels {
		t := s.e.db.Table(r.Table)
		if t == nil {
			continue // surfaces as a compile error in SubmitLiveMeta
		}
		n := float64(t.NumRows())
		rows[r.Alias] = n
		total += s.model.Cost(cost.Selection, n, n)
	}
	for _, j := range q.Joins {
		n := rows[j.LeftAlias]
		if rn := rows[j.RightAlias]; rn > n {
			n = rn
		}
		total += s.model.Cost(cost.Join, n, n)
	}
	return total
}

// finish resolves a ticket exactly once: it releases the admission charge,
// records per-tenant SLO metrics, and publishes the result. Callers must
// own the ticket (have removed it from s.tickets, or never inserted it).
func (s *Stream) finish(t *Ticket, qr QueryResult) {
	qr.Tag = t.tag
	if t.admitted {
		s.adm.RetireDelayHook(t.tenant)
		s.adm.Release(t.tenant, t.admCost)
	}
	reg := metrics.Default()
	if qr.Err != nil && errors.Is(qr.Err, ErrDeadlineShed) {
		// Mid-flight sheds reach here via the engine's expiry watchdog;
		// the global DeadlineSheds counter was already bumped there.
		reg.Tenant(t.tenant).Shed.Add(1)
		if t.admitted {
			s.adm.RecordShed(t.tenant)
		}
	}
	if !t.start.IsZero() {
		reg.ObserveRetire(t.tenant, time.Since(t.start).Microseconds())
	}
	t.res = qr
	close(t.done)
	s.publish(qr)
}

// onRetire is the engine's retirement callback: it consumes the query's
// source into a QueryResult and resolves the ticket. It runs outside the
// session mutex; the collector leaves the query's source alone until it
// returns.
func (s *Stream) onRetire(qid int, st engine.QueryStatus) {
	src := s.sess.Context().Sources[qid]
	// An aborted query's count so far is a lower bound; its rows stay unread.
	qr := QueryResult{Count: src.Count(), Aborted: true, Err: st.Err}
	if st.Completed {
		var err error
		if qr, err = s.e.queryResult(s.b, qid, src, st); err != nil {
			qr.Aborted, qr.Err = true, err
		}
	}

	s.mu.Lock()
	t, ok := s.tickets[qid]
	if !ok {
		s.pending[qid] = qr
		s.mu.Unlock()
		return
	}
	delete(s.tickets, qid)
	s.mu.Unlock()
	s.finish(t, qr)
}

// publish enqueues a result for the Results channel (unbounded queue so
// engine callbacks never block on a slow consumer).
func (s *Stream) publish(qr QueryResult) {
	s.mu.Lock()
	s.resQ = append(s.resQ, qr)
	s.resCond.Broadcast()
	s.mu.Unlock()
}

// Results returns a channel delivering each query's result as it retires,
// in retirement order. The channel closes when the stream finishes. The
// feeding queue is unbounded, so a slow consumer delays nothing.
func (s *Stream) Results() <-chan QueryResult {
	s.resOnce.Do(func() {
		s.results = make(chan QueryResult)
		go func() {
			defer close(s.results)
			for {
				s.mu.Lock()
				for len(s.resQ) == 0 && !s.done {
					s.resCond.Wait()
				}
				if len(s.resQ) == 0 && s.done {
					s.mu.Unlock()
					return
				}
				qr := s.resQ[0]
				s.resQ = s.resQ[1:]
				s.mu.Unlock()
				s.results <- qr
			}
		}()
	})
	return s.results
}

// StemStats snapshots the per-relation STeM state of the running stream:
// resident entries and bytes (which shrink as retired queries are swept)
// and cumulative insert/probe traffic (late-submitted queries reusing a
// pre-built STeM show up as probes without matching inserts).
func (s *Stream) StemStats() []StreamStemStat { return s.sess.StemSnapshot() }

// StreamTenantStat is one tenant's admission counters at a point in time.
type StreamTenantStat = admission.TenantSnapshot

// AdmissionStats snapshots the stream's admission controller: the summed
// in-flight estimated cost, total admitted/rejected submissions, and the
// per-tenant breakdown. All zeroes (nil tenants) when admission control is
// disabled.
func (s *Stream) AdmissionStats() (inFlightCost float64, admitted, rejected int64, tenants []StreamTenantStat) {
	if s.adm == nil {
		return 0, 0, 0, nil
	}
	return s.adm.Snapshot()
}

// SnapshotPolicy exports the stream's current learned state about its
// live queries into the policy store immediately, returning the number
// of Q-states captured. Retirement sweeps and Close do this
// automatically; the explicit hook exists for operator tooling (e.g.
// saving a policy file mid-stream). Zero when the stream has no store,
// no learned policy, or no live queries.
func (s *Stream) SnapshotPolicy() int {
	if s.warm == nil {
		return 0
	}
	n := 0
	s.sess.WithCompiled(func(b *query.Batch, ctx *exec.Context, admitted bitset.Set) {
		n = s.warm.export(b, ctx, admitted)
	})
	return n
}

// PolicyStoreStats snapshots the attached store's counters (zero value
// when the stream has none).
func (s *Stream) PolicyStoreStats() PolicyStoreStats {
	if s.warm == nil {
		return PolicyStoreStats{}
	}
	return s.warm.store.Stats()
}

// Close stops accepting submissions, waits for every in-flight query to
// retire, and shuts the worker pool down. Queries that retire after Close
// are not swept — their STeM entries go with the session — so StemStats
// then shows what was resident at shutdown. With a PolicyStore attached,
// the engine exports the policy once more as the pool exits and the store
// is then persisted (a no-op for purely in-memory stores). It returns the session's terminal
// error, if any. Close is idempotent.
func (s *Stream) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.resCond.Broadcast()
	}
	s.mu.Unlock()
	s.sess.CloseSubmit()
	<-s.runDone
	if s.warm != nil {
		if err := s.warm.store.Save(); err != nil && s.opt.Logger != nil {
			s.opt.Logger.Warn("policy store save failed", "err", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runErr
}
