package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"github.com/roulette-db/roulette"
	"github.com/roulette-db/roulette/internal/metrics"
	"github.com/roulette-db/roulette/internal/qat"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
	"github.com/roulette-db/roulette/internal/tpcds"
	"github.com/roulette-db/roulette/internal/workload"
)

// loopKind is how a workload offers its queries to the engine.
type loopKind int

const (
	batchLoop  loopKind = iota // one ExecuteBatch call per round
	closedLoop                 // stream; clients that each wait for their reply
	openLoop                   // stream; queries due at a fixed rate
)

// spec fixes one workload's shape. Nothing here depends on the host or on
// the seed; README.md says why each workload exists and what its sizes give.
type spec struct {
	name    string
	loop    loopKind
	scale   float64 // TPC-DS-shaped substrate scale (store_sales = 20 000 x scale rows)
	queries int     // queries per round
	joins   int
	sel     float64
	kind    tpcds.SchemaKind

	inFlight   int     // closedLoop: clients
	rate       float64 // openLoop: queries due per second
	admission  bool    // stream: admission controller on (no limits), two tenants
	keepRows   bool    // SUM over the fact's u column instead of counts only
	maxQueries int     // stream: live-query slots
}

var specs = []spec{
	{name: "batch_join", loop: batchLoop, scale: 16, queries: 128, joins: 6, sel: 0.3, kind: tpcds.SnowstormAll},
	{name: "batch_scan", loop: batchLoop, scale: 64, queries: 2048, joins: 1, sel: 1e-4, kind: tpcds.SnowflakeStore},
	{name: "stream_closed", loop: closedLoop, scale: 8, queries: 300, joins: 4, sel: 0.1, kind: tpcds.SnowflakeStore,
		inFlight: 16, admission: true, maxQueries: 64},
	{name: "stream_paced", loop: openLoop, scale: 2, queries: 250, joins: 4, sel: 0.1, kind: tpcds.SnowflakeStore,
		rate: 50, keepRows: true, maxQueries: 64},
}

// tolerance is how far a timed round's counters may lie from what most
// rounds of its run counted before the determinism guard ends the run. A
// batch has nothing to interleave with and repeats exactly. On a stream the
// runtime's time slices decide which queries share a scan (README.md,
// "Determinism"): the worst of some 600 rounds was 17 % off, and the guard
// allows three times that, because it may end a run only when the run did
// work of another kind, not when the host was busy.
func (sp spec) tolerance() float64 {
	if sp.loop == batchLoop {
		return 0
	}
	return 0.5
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// What the seed does not reach. The substrate and the query templates (join
// graph, which relations carry a predicate and how wide it is) are the same
// on every run, as TPC-DS fixes dsdgen's data per scale factor and qgen's
// templates; the seed draws the substitution parameters. A window is moved
// only on relations of at least minWindowRows rows: over the 24-row store
// dimension its position decides whether 2 or 9 rows pass, so the seed, not
// the engine, would decide how much work a query is.
const (
	dataSeed      = 1
	templateSeed  = 1
	minWindowRows = 512
)

// refSample is how many queries per workload are checked against the
// query-at-a-time engine (internal/qat), which shares no execution code with
// RouLette. Every query is also checked against the warm-up round.
const refSample = 64

// answer is what one query must return.
type answer struct {
	count int64
	sum   int64 // SUM value, keepRows workloads only
}

// failedAnswer can equal no expected answer.
var failedAnswer = answer{count: -1}

// fixture is a workload's generated input and expected output.
type fixture struct {
	spec  spec
	seed  int64
	db    *storage.Database
	eng   *roulette.Engine
	inner []*query.Query    // the generated queries, for the traced path and the reference
	qs    []*roulette.Query // the same queries as public builders
	byTag map[string]int    // tag -> index into qs
	want  []answer          // the warm-up round's answers, themselves checked against internal/qat
}

// publicQuery renders a generated query through the public builder.
func publicQuery(q *query.Query) *roulette.Query {
	out := roulette.NewQuery(q.Tag)
	for _, r := range q.Rels {
		out.From(r.Table)
	}
	for _, j := range q.Joins {
		out.Join(j.LeftAlias, j.LeftCol, j.RightAlias, j.RightCol)
	}
	for _, f := range q.Filters {
		out.Between(f.Alias, f.Col, f.Lo, f.Hi)
	}
	if q.Agg.Kind == query.AggSum {
		return out.Sum(q.Agg.Alias, q.Agg.Col)
	}
	return out.CountStar()
}

// generate builds the substrate and the seed's queries.
func generate(sp spec, seed int64) *fixture {
	fx := &fixture{spec: sp, seed: seed, byTag: make(map[string]int, sp.queries)}
	fx.db = tpcds.Generate(sp.scale, dataSeed)
	fx.eng = roulette.NewEngineOn(fx.db)
	fx.inner = workload.NewGenerator(workload.Params{
		Joins: sp.joins, Selectivity: sp.sel, Kind: sp.kind, Seed: templateSeed,
	}).Generate(sp.queries)
	fx.qs = make([]*roulette.Query, sp.queries)
	rng := rand.New(rand.NewSource(seed))
	for i, q := range fx.inner {
		// The tag's prefix is the tenant admission control sees; there are two.
		q.Tag = fmt.Sprintf("t%d/q%04d", i%2, i)
		for k := range q.Filters {
			f := &q.Filters[k]
			if fx.db.MustTable(f.Alias).NumRows() < minWindowRows {
				continue
			}
			width := f.Hi - f.Lo + 1
			f.Lo = rng.Int63n(1000 - width + 1)
			f.Hi = f.Lo + width - 1
		}
		if sp.keepRows {
			q.Agg = query.Agg{Kind: query.AggSum, Alias: q.Rels[0].Table, Col: "u"} // Rels[0] is the channel fact
		}
		fx.qs[i] = publicQuery(q)
		fx.byTag[q.Tag] = i
	}
	return fx
}

// setUp generates the workload's inputs from the seed, runs one untimed
// warm-up round whose answers every timed round is compared with, and checks
// a sample of those answers against the reference engine. The whole of it is
// what setup_s times.
func setUp(sp spec, seed int64) (*fixture, error) {
	t0 := time.Now()
	fx := generate(sp, seed)
	generated := time.Now()
	warm, err := runRound(fx, roundOptions{warmUp: true})
	warmed := time.Now()
	if err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	for i, a := range warm.answers {
		if a == failedAnswer {
			return nil, fmt.Errorf("warm-up round: query %s failed", fx.qs[i].Tag())
		}
	}
	ref := qat.New(fx.db)
	for _, i := range rand.New(rand.NewSource(seed)).Perm(sp.queries)[:min(refSample, sp.queries)] {
		cp := *fx.inner[i]
		c, err := ref.Run(&cp)
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", cp.Tag, err)
		}
		if c != warm.answers[i].count {
			return nil, fmt.Errorf("query %s: RouLette counts %d, the query-at-a-time reference %d",
				cp.Tag, warm.answers[i].count, c)
		}
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "set-up: generate %.3fs, warm-up round %.3fs, reference %.3fs\n",
			generated.Sub(t0).Seconds(), warmed.Sub(generated).Seconds(), time.Since(warmed).Seconds())
	}
	fx.want = warm.answers
	return fx, nil
}

// registry is a reading of the engine's process-wide counters
// (internal/metrics); sessions fold into them when a batch ends or a stream
// closes, so the difference of two readings around a round is that round's.
type registry struct {
	episodes, selIn, joinTuples int64 // the three the determinism guard compares

	selOut, inserts, probes, routed     int64
	filterNs, buildNs, probeNs, routeNs int64
	gcQuanta                            int64
}

func readRegistry() registry {
	r := metrics.Default()
	return registry{
		episodes: r.Episodes.Load(), selIn: r.SelIn.Load(), joinTuples: r.JoinTuples.Load(),
		selOut: r.SelOut.Load(), inserts: r.StemInserts.Load(), probes: r.StemProbes.Load(), routed: r.Routed.Load(),
		filterNs: r.FilterNs.Load(), buildNs: r.BuildNs.Load(), probeNs: r.ProbeNs.Load(), routeNs: r.RouteNs.Load(),
		gcQuanta: r.GCConcurrentQuanta.Load(),
	}
}

func (a registry) sub(b registry) registry {
	return registry{
		episodes: a.episodes - b.episodes, selIn: a.selIn - b.selIn, joinTuples: a.joinTuples - b.joinTuples,
		selOut: a.selOut - b.selOut, inserts: a.inserts - b.inserts, probes: a.probes - b.probes, routed: a.routed - b.routed,
		filterNs: a.filterNs - b.filterNs, buildNs: a.buildNs - b.buildNs, probeNs: a.probeNs - b.probeNs, routeNs: a.routeNs - b.routeNs,
		gcQuanta: a.gcQuanta - b.gcQuanta,
	}
}

// work is what must repeat exactly from round to round when a run is
// replayable from its seed.
type work struct {
	episodes, selIn, joinTuples int64
}

func (a registry) work() work { return work{a.episodes, a.selIn, a.joinTuples} }

// roundResult is one round's measurements.
type roundResult struct {
	wall      time.Duration // batch: ExecuteBatch; stream: first Submit -> last result
	cpu       time.Duration // user+sys over the round, stream Close included
	latencies []float64     // ms per query; batch: the makespan, once
	attempted int
	failed    int // wrong answer, error or abort
	answers   []answer
	reg       registry

	layers *layerRound // traced rounds only
}

// roundOptions select the variants of a round.
type roundOptions struct {
	warmUp  bool                  // open loop: do not wait for due times
	workers int                   // 0 means 1
	store   *roulette.PolicyStore // warm-start store, nil for none
	tr      *tracer               // non-nil: drive the layers directly, with spans and a timed policy
}

// runRound executes the workload's queries once on a fresh batch or stream,
// and counts the answers that differ from fx.want once that is set.
func runRound(fx *fixture, ro roundOptions) (*roundResult, error) {
	runtime.GC()
	before := readRegistry()
	cpu0 := cpuTime()
	var (
		res *roundResult
		err error
	)
	switch {
	case fx.spec.loop != batchLoop:
		res, err = runStream(fx, ro)
	case ro.tr != nil:
		res, err = ro.tr.runBatch(fx)
	default:
		res, err = runBatch(fx, ro)
	}
	if err != nil {
		return nil, err
	}
	res.cpu = cpuTime() - cpu0
	res.reg = readRegistry().sub(before)
	res.attempted = len(fx.qs)
	if fx.want != nil {
		for i, a := range res.answers {
			if a != fx.want[i] {
				res.failed++
			}
		}
	}
	return res, nil
}

func (fx *fixture) options(ro roundOptions) roulette.Options {
	return roulette.Options{
		Policy:      roulette.PolicyLearned,
		Workers:     max(ro.workers, 1),
		Seed:        fx.seed,
		DiscardRows: !fx.spec.keepRows,
		PolicyStore: ro.store,
	}
}

func answerOf(qr *roulette.QueryResult, sum bool) answer {
	if qr.Aborted || qr.Err != nil {
		return failedAnswer
	}
	a := answer{count: qr.Count}
	if sum {
		a.sum = qr.Value()
	}
	return a
}

func runBatch(fx *fixture, ro roundOptions) (*roundResult, error) {
	opt := fx.options(ro)
	t0 := time.Now()
	br, err := fx.eng.ExecuteBatch(fx.qs, &opt)
	wall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	res := &roundResult{wall: wall, latencies: []float64{ms(wall)}, answers: make([]answer, len(fx.qs))}
	for i := range br.Queries {
		res.answers[i] = answerOf(&br.Queries[i], fx.spec.keepRows)
	}
	return res, nil
}

// liveStream is what a stream round needs of a stream. The public
// roulette.Stream is one; the traced run's directly driven engine session
// (layers.go) is the other.
type liveStream interface {
	// submit offers query i; errors.Is(err, roulette.ErrStreamFull) while
	// every slot is held by a query the collector has not reclaimed yet.
	submit(i int) error
	results() <-chan roulette.QueryResult
	close() error
}

type publicStream struct {
	fx *fixture
	st *roulette.Stream
}

func openPublicStream(fx *fixture, ro roundOptions) (liveStream, error) {
	so := &roulette.StreamOptions{Options: fx.options(ro), MaxQueries: fx.spec.maxQueries}
	if fx.spec.admission {
		so.Admission = &roulette.AdmissionOptions{}
	}
	st, err := fx.eng.OpenStream(context.Background(), so)
	if err != nil {
		return nil, err
	}
	return &publicStream{fx: fx, st: st}, nil
}

func (p *publicStream) submit(i int) error {
	_, err := p.st.Submit(p.fx.qs[i])
	return err
}
func (p *publicStream) results() <-chan roulette.QueryResult { return p.st.Results() }
func (p *publicStream) close() error                         { return p.st.Close() }

// runStream drives one stream from this goroutine alone: it submits, then
// reads results, so with GOMAXPROCS(1) the load generator never competes
// with the engine's worker for a second core.
func runStream(fx *fixture, ro roundOptions) (*roundResult, error) {
	sp := fx.spec
	var (
		st  liveStream
		err error
	)
	if ro.tr != nil {
		st, err = ro.tr.openStream(fx)
	} else {
		st, err = openPublicStream(fx, ro)
	}
	if err != nil {
		return nil, err
	}
	n := len(fx.qs)
	res := &roundResult{latencies: make([]float64, 0, n), answers: make([]answer, n)}
	for i := range res.answers {
		res.answers[i] = failedAnswer
	}
	results := st.results()
	sent := make([]time.Time, n)
	plan := schedule{interval: time.Duration(float64(time.Second) / max(sp.rate, 1))}
	paced := sp.loop == openLoop && !ro.warmUp
	next, done := 0, 0

	receive := func(qr roulette.QueryResult) {
		now := time.Now()
		i := fx.byTag[qr.Tag]
		s := openLoopSample{latency: now.Sub(sent[i])}
		if paced {
			s = plan.sample(i, sent[i], now)
		}
		res.latencies = append(res.latencies, ms(s.latency))
		res.answers[i] = answerOf(&qr, sp.keepRows)
		done++
		if ro.tr != nil {
			ro.tr.queryDone(qr.Tag, s.lateness, now)
		}
	}
	// submit retries while the stream is full; that is back-pressure, not
	// failure. No workload here fills its slots, so the wait below is not on
	// the measured path; it is there so that a full stream costs a retry
	// count and not a failed run.
	submit := func(i int) error {
		for {
			t0 := time.Now()
			if ro.tr != nil {
				start := t0
				if paced {
					start = plan.due(i)
				}
				ro.tr.queryStart(fx.qs[i].Tag(), start)
			}
			err := st.submit(i)
			if err == nil {
				sent[i] = t0
				return nil
			}
			if !errors.Is(err, roulette.ErrStreamFull) {
				return fmt.Errorf("submit %s: %w", fx.qs[i].Tag(), err)
			}
			if ro.tr != nil {
				ro.tr.cur.fullRetries++
			}
			select {
			case qr, ok := <-results:
				if !ok {
					return fmt.Errorf("submit %s: stream ended while full", fx.qs[i].Tag())
				}
				receive(qr)
			case <-time.After(200 * time.Microsecond):
			}
		}
	}
	// mayGo says whether query next may be offered now. Closed loop: a client
	// is free (each sends its next query the moment its reply is back). Open
	// loop: the query is due, whatever is still outstanding. The open loop's
	// warm-up only needs the answers and runs the queries one at a time.
	clients := sp.inFlight
	if sp.loop == openLoop {
		clients = 1
	}
	mayGo := func() bool {
		if next == n {
			return false
		}
		if paced {
			return !time.Now().Before(plan.due(next))
		}
		return next-done < clients
	}
	start := time.Now()
	plan.start = start
	for done < n {
		for mayGo() {
			if err := submit(next); err != nil {
				st.close()
				return nil, err
			}
			next++
		}
		if done == n {
			break
		}
		var wake <-chan time.Time
		if paced && next < n {
			wake = time.After(time.Until(plan.due(next)))
		}
		select {
		case qr, ok := <-results:
			if !ok {
				return nil, fmt.Errorf("stream ended with %d of %d results delivered", done, n)
			}
			receive(qr)
		case <-wake:
		}
	}
	res.wall = time.Since(start)
	err = st.close()
	if ro.tr != nil {
		res.layers = ro.tr.endRound()
	}
	if err != nil {
		return nil, fmt.Errorf("close stream: %w", err)
	}
	return res, nil
}
