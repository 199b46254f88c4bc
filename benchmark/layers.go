package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/roulette-db/roulette"
	"github.com/roulette-db/roulette/internal/admission"
	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/host"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
)

// The traced run drives the layers below the public API directly — compile,
// context build, session, admission — as roulette.ExecuteBatch and
// roulette.Stream do, so that it can put a span around each call and hand the
// session a policy that times itself. Nothing inside the engine is touched.

// span is one timed call into a layer. Times are nanoseconds since the
// tracer was created; Parent indexes the span that caused this one (-1 for a
// round); Req is the tag of the query it served, shared by that query's spans.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    string `json:"req,omitempty"`
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover (overlapping children are not counted twice).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		covered, reach := int64(0), s.Start
		// Children are recorded as they end; the sweep needs them by start.
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// layerRound is what one traced round recorded beside its spans.
type layerRound struct {
	compile, build, run, closing time.Duration
	pol                          policyTimes
	qStates                      int64        // largest Q-table seen
	explores, exploits           int64        // policy decisions by kind
	requestSelfMs                []float64    // self time of each request span (endRound)
	submitUs                     []float64    // time inside each Session.SubmitLiveMeta call
	latenessMs                   []float64    // how far behind its plan the open-loop generator submitted
	admissionNs                  atomic.Int64 // time inside admission.Controller calls, from two goroutines
	fullRetries                  int
	stemPeak, stemFinal          int64 // summed STeM EstBytes: largest seen at a retirement, and after the last
	stemProbes, stemMatches      int64
}

// tracer keeps a run's spans in memory; they are written out once, at the end.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex // retirement callbacks record from the worker's goroutine
	spans   []span
	round   int            // the current round's span, -1 between rounds
	queries map[string]int // tag -> the query's request span in the current round

	cur *layerRound // the current round's record
}

func newTracer() *tracer { return &tracer{t0: time.Now(), round: -1} }

// open starts a span under parent and returns its index; close ends it.
func (t *tracer) open(name, req string, parent int, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: int64(start.Sub(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) close(i int, end time.Time) {
	t.mu.Lock()
	t.spans[i].End = int64(end.Sub(t.t0))
	t.mu.Unlock()
}

// span records a finished call under the request span of query req, or under
// the round when req is empty.
func (t *tracer) span(name, req string, start, end time.Time) {
	t.mu.Lock()
	parent := t.round
	if i, ok := t.queries[req]; ok {
		parent = i
	}
	t.mu.Unlock()
	t.close(t.open(name, req, parent, start), end)
}

func (t *tracer) beginRound() {
	t.round = t.open("round", "", -1, time.Now())
	t.queries = make(map[string]int)
	t.cur = &layerRound{}
}

// endRound closes the round and fills in the self time of its request
// spans: the queries' on a stream, the round's own on a batch.
func (t *tracer) endRound() *layerRound {
	t.close(t.round, time.Now())
	// Only this round's spans: earlier rounds are closed and cannot change.
	tail := make([]span, len(t.spans)-t.round)
	copy(tail, t.spans[t.round:])
	for i := range tail {
		tail[i].Parent -= t.round
	}
	tail[0].Parent = -1
	lr := t.cur
	for i, self := range selfTimes(tail) {
		if tail[i].Name == "query" || (i == 0 && len(t.queries) == 0) {
			lr.requestSelfMs = append(lr.requestSelfMs, float64(self)/1e6)
		}
	}
	t.round, t.queries, t.cur = -1, nil, nil
	return lr
}

// queryStart opens a stream query's request span, once however often a full
// stream makes the submission retry.
func (t *tracer) queryStart(tag string, start time.Time) {
	if _, ok := t.queries[tag]; !ok {
		i := t.open("query", tag, t.round, start)
		t.mu.Lock()
		t.queries[tag] = i
		t.mu.Unlock()
	}
}

func (t *tracer) queryDone(tag string, lateness time.Duration, done time.Time) {
	t.close(t.queries[tag], done)
	t.cur.latenessMs = append(t.cur.latenessMs, ms(lateness))
}

// policyTimes counts calls into the planning policy and the time inside them.
type policyTimes struct {
	selCalls, joinCalls, observes int64
	selNs, joinNs, observeNs      int64
}

func (p policyTimes) calls() int64 { return p.selCalls + p.joinCalls }
func (p policyTimes) ns() int64    { return p.selNs + p.joinNs + p.observeNs }

// timedPolicy decorates the learned policy with call counts and nanoseconds
// — counters, not spans: there are tens of calls per episode. It forwards the
// optional interfaces the engine type-asserts on its policy (table size and
// action counts for stats, pruning of retired queries' states on streams).
type timedPolicy struct {
	inner *qlearn.Learned

	selCalls, joinCalls, observes atomic.Int64
	selNs, joinNs, observeNs      atomic.Int64
}

func newTimedPolicy(seed int64) *timedPolicy {
	cfg := qlearn.DefaultConfig()
	if seed != 0 { // as roulette.Options.Seed: 0 keeps the default
		cfg.Seed = seed
	}
	return &timedPolicy{inner: qlearn.New(cfg)}
}

func (p *timedPolicy) ChooseJoin(source query.InstID, lineage uint64, q bitset.Set, cands []int) int {
	t0 := time.Now()
	c := p.inner.ChooseJoin(source, lineage, q, cands)
	p.joinNs.Add(int64(time.Since(t0)))
	p.joinCalls.Add(1)
	return c
}

func (p *timedPolicy) ChooseSel(inst query.InstID, applied uint64, q bitset.Set, cands []int) int {
	t0 := time.Now()
	c := p.inner.ChooseSel(inst, applied, q, cands)
	p.selNs.Add(int64(time.Since(t0)))
	p.selCalls.Add(1)
	return c
}

func (p *timedPolicy) Observe(entries []policy.LogEntry) {
	t0 := time.Now()
	p.inner.Observe(entries)
	p.observeNs.Add(int64(time.Since(t0)))
	p.observes.Add(1)
}

func (p *timedPolicy) TableSize() int                           { return p.inner.TableSize() }
func (p *timedPolicy) ActionCounts() (explores, exploits int64) { return p.inner.ActionCounts() }
func (p *timedPolicy) PruneRetired(retired bitset.Set) int      { return p.inner.PruneRetired(retired) }

func (p *timedPolicy) times() policyTimes {
	return policyTimes{
		selCalls: p.selCalls.Load(), joinCalls: p.joinCalls.Load(), observes: p.observes.Load(),
		selNs: p.selNs.Load(), joinNs: p.joinNs.Load(), observeNs: p.observeNs.Load(),
	}
}

// execOptions are the executor options roulette.Options maps to for this
// workload. On a batch the stats counters are on as well: they count probes
// and matches per STeM. On a stream they stay off, because with them on
// exec.Context.ApplyExtend appends to Context.InstStats under the session
// mutex while a worker's foldStats indexes it outside the mutex — a data race
// in the engine today, which a benchmark should report, not exercise. A
// stream therefore reports stem.probes_per_query and stem.matches_per_probe
// as 0.
func (fx *fixture) execOptions() exec.Options {
	opt := exec.DefaultOptions()
	opt.CollectRows = fx.spec.keepRows
	opt.CollectStats = fx.spec.loop == batchLoop
	return opt
}

// runBatch is roulette.Engine.ExecuteBatch's sequence of layer calls.
func (t *tracer) runBatch(fx *fixture) (*roundResult, error) {
	t.beginRound()
	lr := t.cur
	qs := make([]*query.Query, len(fx.inner))
	for i, q := range fx.inner {
		cp := *q // Compile assigns batch-local IDs
		qs[i] = &cp
	}
	start := time.Now()
	b, err := query.Compile(qs)
	compiled := time.Now()
	if err != nil {
		return nil, err
	}
	pol := newTimedPolicy(fx.seed)
	sess, err := engine.NewSession(b, fx.db, engine.Config{Exec: fx.execOptions(), Workers: 1, Policy: pol})
	built := time.Now()
	if err != nil {
		return nil, err
	}
	r, err := sess.Run()
	end := time.Now()
	if err != nil {
		return nil, err
	}
	t.span("query.compile", "", start, compiled)
	t.span("exec.context_build", "", compiled, built)
	t.span("engine.run", "", built, end)
	lr.compile, lr.build, lr.run = compiled.Sub(start), built.Sub(compiled), end.Sub(built)
	lr.pol, lr.qStates = pol.times(), int64(pol.inner.TableSize())
	lr.explores, lr.exploits = pol.inner.ActionCounts()
	for _, st := range r.Stats.Stems {
		lr.stemFinal += st.EstBytes
		lr.stemProbes += st.Probes
		lr.stemMatches += st.Matches
	}
	lr.stemPeak = lr.stemFinal // a batch's STeMs only grow

	wall := end.Sub(start)
	res := &roundResult{wall: wall, latencies: []float64{ms(wall)}, answers: make([]answer, b.N)}
	for qid := range res.answers {
		res.answers[qid] = failedAnswer
		if r.Status[qid].Completed {
			res.answers[qid] = answer{count: r.Counts[qid]}
		}
	}
	res.layers = t.endRound()
	return res, nil
}

// layerStream is roulette.Stream's sequence of layer calls: admission, then
// Session.SubmitLiveMeta; results consumed on retirement.
type layerStream struct {
	fx   *fixture
	t    *tracer
	b    *query.Batch
	sess *engine.Session
	pol  *timedPolicy
	adm  *admission.Controller // nil when the workload runs without admission control

	res     chan roulette.QueryResult
	runDone chan error
}

func (t *tracer) openStream(fx *fixture) (liveStream, error) {
	t.beginRound()
	ls := &layerStream{
		fx: fx, t: t,
		b:   query.NewStreamBatch(fx.spec.maxQueries),
		pol: newTimedPolicy(fx.seed),
		// Every query retires once, so no send ever blocks the engine.
		res:     make(chan roulette.QueryResult, len(fx.inner)),
		runDone: make(chan error, 1),
	}
	if fx.spec.admission {
		ls.adm = admission.NewController(admission.Config{})
	}
	t0 := time.Now()
	sess, err := engine.NewSession(ls.b, fx.db, engine.Config{
		Exec: fx.execOptions(), Workers: 1, Policy: ls.pol, Streaming: true, OnRetire: ls.onRetire,
	})
	if err != nil {
		return nil, err
	}
	t.cur.build = time.Since(t0)
	t.span("exec.context_build", "", t0, time.Now())
	ls.sess = sess
	go func() {
		_, err := sess.RunContext(context.Background())
		ls.runDone <- err
		close(ls.res)
	}()
	return ls, nil
}

func (ls *layerStream) submit(i int) error {
	q := *ls.fx.inner[i] // the stream assigns its own query ID
	var meta engine.SubmitMeta
	t0 := time.Now()
	if ls.adm != nil {
		meta.Tenant = admission.TenantOf(q.Tag)
		if err := ls.adm.Admit(meta.Tenant, 0); err != nil {
			return err
		}
		meta.Weight = ls.adm.Weight(meta.Tenant)
		t1 := time.Now()
		ls.t.span("admission.admit", q.Tag, t0, t1)
		ls.t.cur.admissionNs.Add(int64(t1.Sub(t0)))
		t0 = t1
	}
	if ls.sess.FreeQuerySlots() == 0 {
		if ls.adm != nil {
			ls.adm.Release(meta.Tenant, 0)
		}
		return roulette.ErrStreamFull
	}
	_, err := ls.sess.SubmitLiveMeta(&q, meta)
	t1 := time.Now()
	if err != nil {
		return err
	}
	ls.t.span("engine.submit", q.Tag, t0, t1)
	ls.t.cur.submitUs = append(ls.t.cur.submitUs, float64(t1.Sub(t0))/1e3)
	return nil
}

// onRetire runs on the worker's goroutine, outside the session mutex, once
// per query, and never while the batch is being extended.
func (ls *layerStream) onRetire(qid int, st engine.QueryStatus) {
	tag := ls.b.Queries[qid].Tag
	src := ls.sess.Context().Sources[qid]
	// Sampled here, at retirement: by the time the driver's goroutine sees the
	// result the collector has already swept the query's state.
	lr := ls.t.cur
	bytes, _, _ := ls.stems()
	lr.stemPeak = max(lr.stemPeak, bytes)
	lr.qStates = max(lr.qStates, int64(ls.pol.inner.TableSize()))
	qr := roulette.QueryResult{Tag: tag, Count: src.Count(), Aborted: !st.Completed, Err: st.Err}
	if st.Completed && ls.fx.spec.keepRows {
		t0 := time.Now()
		hr, err := host.Consume(ls.fx.db, ls.b, qid, src)
		ls.t.span("host.consume", tag, t0, time.Now())
		if err != nil {
			qr.Aborted, qr.Err = true, err
		} else {
			for _, g := range hr.Groups {
				qr.Groups = append(qr.Groups, roulette.Group{Key: g.Key, Value: g.Value})
			}
		}
	}
	if ls.adm != nil {
		t0 := time.Now()
		ls.adm.Release(admission.TenantOf(tag), 0)
		t1 := time.Now()
		ls.t.span("admission.release", tag, t0, t1)
		ls.t.cur.admissionNs.Add(int64(t1.Sub(t0)))
	}
	ls.res <- qr
}

func (ls *layerStream) results() <-chan roulette.QueryResult { return ls.res }

// stems sums the live STeM statistics over the instances.
func (ls *layerStream) stems() (bytes, probes, matches int64) {
	for _, st := range ls.sess.StemSnapshot() {
		bytes += st.EstBytes
		probes += st.Probes
		matches += st.Matches
	}
	return
}

func (ls *layerStream) close() error {
	lr := ls.t.cur
	lr.stemFinal, lr.stemProbes, lr.stemMatches = ls.stems()
	lr.explores, lr.exploits = ls.pol.inner.ActionCounts()
	t0 := time.Now()
	ls.sess.CloseSubmit()
	err := <-ls.runDone
	ls.t.cur.closing = time.Since(t0)
	ls.t.span("engine.close", "", t0, time.Now())
	ls.t.cur.pol = ls.pol.times()
	if err != nil {
		return fmt.Errorf("session: %w", err)
	}
	return nil
}
