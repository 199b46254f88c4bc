package exec

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/cost"
	"github.com/roulette-db/roulette/internal/plan"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/stem"
	"github.com/roulette-db/roulette/internal/value"
)

// EpisodeInput is the work item for one episode: one ingested vector, the
// query set actively scanning its relation, the subset of it whose tuples
// need no STeM entry, the version slot assigned to the episode, and the
// currently available selection operators.
type EpisodeInput struct {
	Inst   query.InstID
	VIDs   []int32
	Active bitset.Set
	// Final holds the active queries for which no later probe can reach
	// this vector's entries: every other relation of the query has finished
	// its scan and every in-flight episode carrying it is on Inst. The
	// build leaves their bits out; selection and join still run on Active.
	// Nil builds for every active query.
	Final  bitset.Set
	Slot   stem.Slot
	SelOps []plan.SelOpInfo
}

// jvec is a join-phase intermediate vector in the Data-Query model: one vID
// column per present lineage instance plus a per-tuple query-set slab.
type jvec struct {
	insts []query.InstID
	vids  [][]int32
	qsets []uint64 // n × qw words
	n     int
}

func (v *jvec) instIdx(inst query.InstID) int {
	for i, in := range v.insts {
		if in == inst {
			return i
		}
	}
	return -1
}

// jvecPool recycles join-phase vectors and their vID columns within one
// worker. Vectors are acquired per probe/routing selection and released by
// execChildren once their sub-plan completes, so the live set is bounded by
// the plan depth; backing arrays keep their capacity across episodes, which
// makes the steady-state join phase allocation-free.
type jvecPool struct {
	free []*jvec
	cols [][]int32
}

func (p *jvecPool) get() *jvec {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		return v
	}
	return &jvec{}
}

// col returns an empty vID column, reusing a released one when available.
func (p *jvecPool) col() []int32 {
	if n := len(p.cols); n > 0 {
		c := p.cols[n-1]
		p.cols = p.cols[:n-1]
		return c[:0]
	}
	return nil
}

// put returns v and its columns to the pool. The caller must be done with
// every slice view into v.
func (p *jvecPool) put(v *jvec) {
	for i := range v.vids {
		if v.vids[i] != nil {
			p.cols = append(p.cols, v.vids[i])
		}
		v.vids[i] = nil
	}
	v.insts = v.insts[:0]
	v.vids = v.vids[:0]
	v.qsets = v.qsets[:0]
	v.n = 0
	p.free = append(p.free, v)
}

// Worker executes episodes against a shared Context. Each worker owns its
// scratch buffers; workers synchronize only through STeMs, sources, the
// policy, and the stats counters.
type Worker struct {
	C   *Context
	Pol policy.Policy

	qw  int
	log []policy.LogEntry

	// Stats arena: every counter accumulates in these plain fields during an
	// episode and folds into the shared Context.Stats atomics exactly once,
	// at the episode boundary (foldStats). The hot loops therefore never
	// touch a shared cache line.
	ep      epCounters // folded and reset by foldStats
	planSig uint64     // FNV-style signature of the episode's chosen ops

	// Per-instance STeM traffic, parallel to C.InstStats.
	instIns, instProbes, instMatches []int64

	// Episode arena: worker-owned buffers reset (not reallocated) per
	// episode. Workers never share scratch, so reuse needs no new
	// synchronization; everything handed to shared structures (STeM
	// entries, source rows) is copied by the receiver before the arena is
	// reused. DESIGN.md "Performance" documents the ownership rules.
	selVids   []int32    // ingested vID buffer (selection phase input)
	selQsets  []uint64   // ingested query-set slab, n × qw words
	root      jvec       // join-phase root vector (wraps selVids/selQsets)
	pool      jvecPool   // intermediate join vectors
	fullMask  bitset.Set // all-queries mask (template for notMask)
	notMask   bitset.Set // prune: bits outside the eligible set
	unionBuf  bitset.Set // route: union of present query bits
	qidBuf    []int      // route: decoded query IDs
	colIdx    []int      // route: source column positions
	flat      []int32    // route: per-query row batch
	copyIdx   []int      // probe/routeSel: input column positions to copy
	residuals []appliedResidual

	// Vector-kernel arena (see internal/stem/vec.go). probeKeys doubles as
	// the prune phase's key batch — the selection and join phases of one
	// episode never overlap on a worker, and probe() finishes with these
	// buffers before execChildren recurses into a child probe.
	insKeys    [][]int64          // STeM-insert key columns, built from vIDs
	insScratch stem.InsertScratch // InsertVec bucket pre-linking scratch
	insVids    []int32            // build: tuples left after masking out Final
	insQsets   []uint64           // build: their masked query sets, stride qw
	probeKeys  []int64            // kernel input keys (probe + prune)
	probeIn    []int32            // kernel input position -> tuple index
	probeTqs   []uint64           // masked tuple query sets, stride qw
	vmatches   []stem.VecMatch    // ProbeVec output buffer
	matchQs    []uint64           // ProbeVec query-set slab (VecMatch.QSet views)
	pruneQs    []uint64           // SemiJoinVec output slab, stride qw

	// cv is the context view this episode runs against: loaded once per
	// episode (one atomic pointer load), so the hot loops below read an
	// immutable snapshot while the engine admits and retires queries
	// concurrently. clk is the worker's private publication-timestamp block
	// allocator (stem.Clock), eliminating the shared version-clock CAS from
	// the per-episode publish path.
	cv  *view
	clk stem.Clock
}

// NewWorker creates a worker bound to ctx using pol for planning. Every
// query set an episode touches is qw words wide, qw being the word count of
// the batch's query-ID capacity, which never changes while a streaming batch
// admits queries; RunEpisode rejects inputs of any other width. qw == 1 (the
// default 64-query capacity) takes the operators' single-word fast paths.
func NewWorker(ctx *Context, pol policy.Policy) *Worker {
	qcap := ctx.B.QCap()
	qw := bitset.WordsFor(qcap)
	n := len(ctx.B.Insts)
	return &Worker{
		C: ctx, Pol: pol, qw: qw,
		fullMask:    bitset.NewFull(qcap),
		notMask:     bitset.New(qcap),
		unionBuf:    make(bitset.Set, qw),
		instIns:     make([]int64, n, query.MaxInstances),
		instProbes:  make([]int64, n, query.MaxInstances),
		instMatches: make([]int64, n, query.MaxInstances),
	}
}

// epCounters is the per-worker stats arena: plain fields mirroring the
// Stats atomics, zeroed by each fold.
type epCounters struct {
	episodes, selIn, selOut, inserted, joinOut, routed int64
	filterNs, buildNs, probeNs, routeNs                int64
	filterOps, probeOps, routeSelOps, routerOps        int64
	sharedOps, opQueries                               int64
}

// foldStats folds the worker's arena counters into the shared atomics and
// resets the arena. Called exactly once per episode, deferred in the
// episode body so faulted (panicking) episodes still publish their partial
// counters. It never allocates.
func (w *Worker) foldStats() {
	s, e := &w.C.Stats, &w.ep
	if e.episodes != 0 {
		s.Episodes.Add(e.episodes)
	}
	if e.selIn != 0 {
		s.SelIn.Add(e.selIn)
	}
	if e.selOut != 0 {
		s.SelOut.Add(e.selOut)
	}
	if e.inserted != 0 {
		s.Inserted.Add(e.inserted)
	}
	if e.joinOut != 0 {
		s.JoinOut.Add(e.joinOut)
	}
	if e.routed != 0 {
		s.Routed.Add(e.routed)
	}
	if e.filterNs != 0 {
		s.FilterNs.Add(e.filterNs)
	}
	if e.buildNs != 0 {
		s.BuildNs.Add(e.buildNs)
	}
	if e.probeNs != 0 {
		s.ProbeNs.Add(e.probeNs)
	}
	if e.routeNs != 0 {
		s.RouteNs.Add(e.routeNs)
	}
	if e.filterOps != 0 {
		s.FilterOps.Add(e.filterOps)
	}
	if e.probeOps != 0 {
		s.ProbeOps.Add(e.probeOps)
	}
	if e.routeSelOps != 0 {
		s.RouteSelOps.Add(e.routeSelOps)
	}
	if e.routerOps != 0 {
		s.RouterOps.Add(e.routerOps)
	}
	if e.sharedOps != 0 {
		s.SharedOps.Add(e.sharedOps)
	}
	if e.opQueries != 0 {
		s.OpQueries.Add(e.opQueries)
	}
	for i := range w.instIns {
		st := &w.C.InstStats[i]
		if w.instIns[i] != 0 {
			st.Inserts.Add(w.instIns[i])
			w.instIns[i] = 0
		}
		if w.instProbes[i] != 0 {
			st.Probes.Add(w.instProbes[i])
			w.instProbes[i] = 0
		}
		if w.instMatches[i] != 0 {
			st.Matches.Add(w.instMatches[i])
			w.instMatches[i] = 0
		}
	}
	*e = epCounters{}
}

// countServed adds one operator invocation's served queries to the arena;
// the caller bumps the invocation's class counter.
func (w *Worker) countServed(served int) {
	w.ep.opQueries += int64(served)
	if served > 1 {
		w.ep.sharedOps++
	}
}

// foldSig folds one chosen operator into the episode's plan signature
// (FNV-1a-style over (lineage, phase, op)). Episodes that pick the same
// operator sequence over the same lineage states share a signature, so a
// signature change between consecutive episodes of an instance is a plan
// switch.
func (w *Worker) foldSig(phase uint64, op int, lineage uint64) {
	const prime = 0x100000001b3
	w.planSig = (w.planSig ^ lineage) * prime
	w.planSig = (w.planSig ^ (phase<<32 | uint64(op))) * prime
}

// EpisodeReport summarizes one episode for convergence tracking.
type EpisodeReport struct {
	// MeasuredCost is the episode's cost-model total over the execution log.
	MeasuredCost float64
	// MeasuredJoinCost restricts the total to the join phase — the series
	// the Fig. 16 learning curves plot against the policy's join-phase
	// estimate.
	MeasuredJoinCost float64
	// JoinInput is the number of tuples entering the join phase.
	JoinInput int

	// PlanSig identifies the episode's chosen operator sequence; see
	// Worker.foldSig. The engine counts plan switches from it and the flight
	// recorder stamps episode events with it.
	PlanSig uint64
}

// ingestVector copies the episode's vIDs into the worker arena and stamps
// every tuple with the active query set: the first tuple's set is copied
// from Active, then the stamped prefix doubles until it covers the vector.
func (w *Worker) ingestVector(in EpisodeInput) ([]int32, []uint64) {
	w.selVids = append(w.selVids[:0], in.VIDs...)
	need := len(in.VIDs) * w.qw
	if cap(w.selQsets) < need {
		w.selQsets = make([]uint64, need)
	}
	qsets := w.selQsets[:need]
	for done := copy(qsets, in.Active); done < need; done *= 2 {
		copy(qsets[done:], qsets[:done])
	}
	return w.selVids, qsets
}

// runSelSteps applies a planned selection-phase operator chain to the
// ingested vector, compacting after every step and logging each decision.
func (w *Worker) runSelSteps(in EpisodeInput, steps []plan.SelStep, vids []int32, qsets []uint64) ([]int32, []uint64) {
	c := w.C
	cv := w.cv
	for si := range steps {
		st := &steps[si]
		nIn := len(vids)
		if nIn == 0 {
			break
		}
		if ref := cv.selOps[st.Op.ID]; !ref.prune {
			cv.filters[ref.idx].Apply(c.Opt.GroupedFilters, vids, qsets, w.qw)
		} else {
			w.applyPrune(&cv.pruneOps[ref.idx], st.Op.Queries, vids, qsets)
		}
		vids, qsets = compact(vids, qsets, w.qw)
		w.foldSig(0, st.Op.ID, st.Applied)
		w.ep.filterOps++
		w.countServed(andCount(st.Op.Queries, in.Active))
		w.log = append(w.log, policy.LogEntry{
			Phase: policy.SelPhase, Inst: in.Inst,
			Lineage: st.Applied, Q: in.Active, Op: st.Op.ID,
			NIn: nIn, NOut: len(vids), NDiv: -1,
			MainLineage: st.NextApplied, QMain: in.Active, MainCands: st.NextCands,
		})
	}
	return vids, qsets
}

// rootVec wraps the surviving selection-phase vector as the join-phase root
// without copying; it aliases the worker's ingest buffers.
func (w *Worker) rootVec(inst query.InstID, vids []int32, qsets []uint64, n int) *jvec {
	v := &w.root
	v.insts = append(v.insts[:0], inst)
	v.vids = append(v.vids[:0], vids)
	v.qsets = qsets
	v.n = n
	return v
}

// RunEpisode processes one episode: selection phase, STeM insert, join
// phase, routing, and the policy update from the episode's execution log.
// A non-nil error means the episode was aborted before completing its STeM
// insertion (injected or real insertion failure); the episode's version
// slot is published regardless so concurrent probes never spin on it.
func (w *Worker) RunEpisode(in EpisodeInput) (EpisodeReport, error) {
	// Selection planning is the policy's ChooseSel; it is charged to the
	// filter timer with the selection steps it plans.
	t0 := time.Now()
	steps := plan.BuildSel(w.Pol, in.Inst, in.Active, in.SelOps)
	w.ep.filterNs += time.Since(t0).Nanoseconds()
	return w.runEpisode(in, steps, nil)
}

// runEpisode is the episode body RunEpisode and StepBench.Step share. It
// runs the planned selection steps, the STeM build and the slot's publish,
// then the join plan: join when non-nil, otherwise built here, and only once
// the selection has left tuples, so an empty episode draws no join
// decisions from the policy.
//
// Every query set the body touches — Active, a non-nil Final, plan-node
// masks, grouped-filter masks, STeM entry sets — is exactly w.qw words. The
// rule is checked here, once per episode, so the operators below index
// their words without length guards.
func (w *Worker) runEpisode(in EpisodeInput, steps []plan.SelStep, join *plan.Node) (EpisodeReport, error) {
	if len(in.Active) != w.qw || (in.Final != nil && len(in.Final) != w.qw) {
		panic(fmt.Sprintf("exec: episode query sets of %d (active) and %d (final) words, want %d",
			len(in.Active), len(in.Final), w.qw))
	}
	c := w.C
	w.cv = c.loadView()
	if h := c.Opt.Hooks.EpisodeStart; h != nil {
		h(in.Inst, in.Slot)
	}
	w.log = w.log[:0]
	w.planSig = 0
	if len(w.instIns) < len(w.cv.g.Insts) {
		// A live-admitted query added instances since this worker was built;
		// extend the per-instance arenas (capacity reserved at creation, so
		// steady state never reallocates).
		n := len(w.cv.g.Insts)
		w.instIns = w.instIns[:n]
		w.instProbes = w.instProbes[:n]
		w.instMatches = w.instMatches[:n]
	}
	defer w.foldStats() // runs during panic unwind too: faulted episodes fold
	w.ep.episodes++

	// ---- Selection phase -------------------------------------------------
	t0 := time.Now()
	vids, qsets := w.ingestVector(in)
	w.ep.selIn += int64(len(vids))
	vids, qsets = w.runSelSteps(in, steps, vids, qsets)
	w.ep.filterNs += time.Since(t0).Nanoseconds()
	w.ep.selOut += int64(len(vids))

	// ---- STeM build (the insert side of the symmetric join) --------------
	if h := c.Opt.Hooks.StemInsert; h != nil {
		if err := h(in.Inst, in.Slot); err != nil {
			c.Versions.Publish(in.Slot)
			return EpisodeReport{}, err
		}
	}
	t0 = time.Now()
	built := w.build(in, vids, qsets)
	// The slot is published whether or not anything was built.
	// PublishClocked reads the watermark before drawing the publish
	// timestamp from the worker's block clock: every slot under wm then has
	// a timestamp strictly older than ts, letting the probe kernels skip
	// per-entry version lookups (stem.ProbeVec).
	wm, ts := c.Versions.PublishClocked(in.Slot, &w.clk)
	w.ep.buildNs += time.Since(t0).Nanoseconds()
	w.ep.inserted += int64(built)
	w.instIns[in.Inst] += int64(built)

	joinInput := len(vids)
	if joinInput > 0 {
		// ---- Join phase ---------------------------------------------------
		if join == nil {
			join = plan.BuildJoin(&w.cv.g, w.Pol, in.Inst, in.Active, c.ReqInsts)
		}
		w.execChildren(join, w.rootVec(in.Inst, vids, qsets, joinInput), ts, wm)
	}

	rep := EpisodeReport{JoinInput: joinInput, PlanSig: w.planSig}
	rep.MeasuredCost, rep.MeasuredJoinCost = w.measuredCost()
	w.Pol.Observe(w.log)
	return rep, nil
}

// build inserts the episode's surviving tuples into in.Inst's STeM, so that
// tuples of the queries' other relations scanned later can probe them (the
// symmetric join, §3), and returns how many entries it inserted. Only what
// can still be probed is built: each tuple enters with its query set minus
// in.Final, tuples left empty are skipped, and a vector whose every active
// query is final inserts nothing. An entry without a query's bit never
// contributes to that query, since probes AND the tuple's set with the
// entry's, so results are unchanged.
func (w *Worker) build(in EpisodeInput, vids []int32, qsets []uint64) int {
	if in.Final != nil {
		if in.Active.IsSubset(in.Final) {
			return 0
		}
		vids, qsets = w.maskFinal(in.Final, vids, qsets)
	}
	if len(vids) == 0 {
		return 0
	}
	nk := len(w.cv.stemKeyCols[in.Inst])
	for len(w.insKeys) < nk {
		w.insKeys = append(w.insKeys, nil)
	}
	ik := w.insKeys[:nk]
	for k, colData := range w.cv.stemKeySlices[in.Inst] {
		col := ik[k][:0]
		for _, vid := range vids {
			col = append(col, colData[vid])
		}
		ik[k] = col
	}
	w.cv.stems[in.Inst].InsertVec(vids, ik, qsets, w.qw, in.Slot, &w.insScratch)
	return len(vids)
}

// maskFinal copies the tuples into the worker's build buffers with final's
// bits cleared, dropping the tuples left empty. The join phase keeps
// reading the unmasked originals.
func (w *Worker) maskFinal(final bitset.Set, vids []int32, qsets []uint64) ([]int32, []uint64) {
	bv := append(w.insVids[:0], vids...)
	bq := append(w.insQsets[:0], qsets...)
	for base := 0; base < len(bq); base += w.qw {
		for wd, f := range final {
			bq[base+wd] &^= f
		}
	}
	w.insVids, w.insQsets = compact(bv, bq, w.qw)
	return w.insVids, w.insQsets
}

// Log returns the execution log of the worker's last episode, in execution
// order — for a faulted episode, the entries logged before the fault. It
// aliases a worker buffer that the next episode overwrites.
func (w *Worker) Log() []policy.LogEntry { return w.log }

// measuredCost totals the episode's log through the cost model: join-phase
// probes (plus routing selections on divergence) and selection operators.
// It returns the full total and the join-phase-only total.
func (w *Worker) measuredCost() (total, join float64) {
	m := w.C.Model
	for i := range w.log {
		e := &w.log[i]
		switch e.Phase {
		case policy.JoinPhase:
			c := m.Cost(cost.Join, float64(e.NIn), float64(e.NOut))
			if e.NDiv >= 0 {
				c += m.Cost(cost.RoutingSelection, float64(e.NIn), float64(e.NDiv))
			}
			total += c
			join += c
		case policy.SelPhase:
			total += m.Cost(cost.Selection, float64(e.NIn), float64(e.NOut))
		}
	}
	return total, join
}

// applyPrune intersects each tuple's query set with the union of matching
// query sets in the opposite STeM, restricted to the eligible queries
// (symmetric join pruning, §5.2). The whole vector goes through one
// SemiJoinVec kernel call: keys are gathered into the worker's key batch,
// matching query-set unions land in the pruneQs slab, and the mask is
// applied tuple by tuple afterwards.
func (w *Worker) applyPrune(p *PruneOp, elig bitset.Set, vids []int32, qsets []uint64) {
	other := w.cv.stems[p.Other]
	local := w.cv.tables[p.Inst].Col(p.LocalCol)
	w.notMask = w.fullMask.CopyInto(w.notMask)
	notMask := w.notMask
	notMask.AndNotWith(elig)

	pk := w.probeKeys[:0]
	for _, vid := range vids {
		pk = append(pk, local[vid])
	}
	w.probeKeys = pk
	need := len(vids) * w.qw
	if cap(w.pruneQs) < need {
		w.pruneQs = make([]uint64, need)
	}
	outs := w.pruneQs[:need]
	clear(outs) // SemiJoinVec ORs into it
	other.SemiJoinVec(outs, w.qw, p.OtherCol, pk)
	for base := 0; base < need; base += w.qw {
		for wd, nm := range notMask {
			qsets[base+wd] &= outs[base+wd] | nm
		}
	}
}

// andCount returns the popcount of a ∧ b without materializing it; b is at
// least as wide as a.
func andCount(a, b bitset.Set) int {
	c := 0
	for i, x := range a {
		c += bits.OnesCount64(x & b[i])
	}
	return c
}

// compact drops tuples with empty query sets, in place.
func compact(vids []int32, qsets []uint64, qw int) ([]int32, []uint64) {
	out := 0
	if qw == 1 {
		for i := range vids {
			if qsets[i] != 0 {
				vids[out] = vids[i]
				qsets[out] = qsets[i]
				out++
			}
		}
		return vids[:out], qsets[:out]
	}
	for i := range vids {
		q := bitset.Set(qsets[i*qw : (i+1)*qw])
		if !q.Empty() {
			vids[out] = vids[i]
			copy(qsets[out*qw:], q)
			out++
		}
	}
	return vids[:out], qsets[:out*qw]
}

// execChildren runs node's children over its output vector v: probe
// sub-plans before divergence sub-plans, bounding pending vectors (§3).
// Intermediate vectors return to the worker pool as soon as their sub-plan
// completes.
func (w *Worker) execChildren(n *plan.Node, v *jvec, ts int64, wm stem.Slot) {
	for _, ch := range n.Children {
		switch ch.Kind {
		case plan.Router:
			w.route(ch, v)
		case plan.RouteSel:
			// Executed through the sibling probe's Div pointer.
		case plan.Probe:
			out, logIdx := w.probe(ch, v, ts, wm)
			w.execChildren(ch, out, ts, wm)
			w.pool.put(out)
			if ch.Div != nil {
				divOut := w.routeSel(ch.Div, v)
				w.log[logIdx].NDiv = divOut.n
				w.execChildren(ch.Div, divOut, ts, wm)
				w.pool.put(divOut)
			}
		}
	}
}

// appliedResidual is a cycle-closing residual predicate completed by the
// current probe: it clears its query's bit from output tuples whose
// endpoint values differ.
type appliedResidual struct {
	qid        int
	otherIdx   int
	otherData  []int64
	targetData []int64
}

// holds reports whether the residual's equality holds between tuple i of v
// and the matched vID. NULL endpoints (value.NullCode) never satisfy it: the
// ov != NullCode check also rejects NULL = NULL, which == alone would accept.
func (rr *appliedResidual) holds(v *jvec, i int, vid int32) bool {
	ov := rr.otherData[v.vids[rr.otherIdx][i]]
	return ov == rr.targetData[vid] && ov != value.NullCode
}

// emitTuple appends tuple i's kept vID columns (plus, for probes, the
// matched vID) to out. Kept free of closure state so the probe and routing-
// selection hot loops stay allocation-free.
func emitTuple(out *jvec, copyIdx []int, v *jvec, i, targetPos int, vid int32) {
	for oi, vi := range copyIdx {
		out.vids[oi] = append(out.vids[oi], v.vids[vi][i])
	}
	if targetPos >= 0 {
		out.vids[targetPos] = append(out.vids[targetPos], vid)
	}
	out.n++
}

// probe executes one STeM probe node, producing the expanded vector and the
// index of its log entry (whose NDiv the caller may patch). The output
// vector comes from the worker pool; the caller releases it.
func (w *Worker) probe(nd *plan.Node, v *jvec, ts int64, wm stem.Slot) (*jvec, int) {
	cv := w.cv
	t0 := time.Now()
	e := &cv.g.Edges[nd.EdgeID]
	var src query.InstID
	var srcData []int64
	var targetCol string
	if nd.Target == e.A {
		src, srcData, targetCol = e.B, cv.edgeBCol[e.ID], e.ACol
	} else {
		src, srcData, targetCol = e.A, cv.edgeACol[e.ID], e.BCol
	}
	srcIdx := v.instIdx(src)

	// Residual predicates completed by this probe: cycle-closing joins whose
	// second endpoint is the probed instance.
	residuals := w.residuals[:0]
	for ri := range cv.g.Residuals {
		r := &cv.g.Residuals[ri]
		var other query.InstID
		var otherData, targetData []int64
		switch {
		case r.A == nd.Target && nd.Lineage&(1<<r.B) != 0:
			other, otherData, targetData = r.B, cv.resBCol[ri], cv.resACol[ri]
		case r.B == nd.Target && nd.Lineage&(1<<r.A) != 0:
			other, otherData, targetData = r.A, cv.resACol[ri], cv.resBCol[ri]
		default:
			continue
		}
		if !nd.Q.Contains(r.QID) {
			continue
		}
		if oi := v.instIdx(other); oi >= 0 {
			residuals = append(residuals, appliedResidual{r.QID, oi, otherData, targetData})
		}
	}
	w.residuals = residuals

	// Output columns: only what the children need (adaptive projections).
	var outKeep uint64
	for _, ch := range nd.Children {
		outKeep |= ch.Keep
	}
	out := w.pool.get()
	copyIdx := w.copyIdx[:0]
	for i, inst := range v.insts {
		if outKeep&(1<<inst) != 0 {
			out.insts = append(out.insts, inst)
			out.vids = append(out.vids, w.pool.col())
			copyIdx = append(copyIdx, i)
		}
	}
	w.copyIdx = copyIdx
	targetPos := -1
	if outKeep&(1<<nd.Target) != 0 {
		targetPos = len(out.insts)
		out.insts = append(out.insts, nd.Target)
		out.vids = append(out.vids, w.pool.col())
	}

	// Gather phase: eligible tuples' join keys and masked query sets move
	// into the worker's kernel batch, then one ProbeVec call replaces the
	// per-tuple STeM probes (stem/vec.go). The merge loop reads matches in
	// input order, so output tuples append in the same order as before.
	qmask := nd.Q
	stemT := cv.stems[nd.Target]
	pk := w.probeKeys[:0]
	pin := w.probeIn[:0]
	srcVids := v.vids[srcIdx]
	if qw := w.qw; qw == 1 {
		// Fast path: batches of up to 64 queries use single-word query
		// sets; the generic word loops dominate the probe otherwise.
		mask := qmask[0]
		ptq := w.probeTqs[:0]
		for i := 0; i < v.n; i++ {
			tqw := v.qsets[i] & mask
			if tqw == 0 {
				continue
			}
			pk = append(pk, srcData[srcVids[i]])
			pin = append(pin, int32(i))
			ptq = append(ptq, tqw)
		}
		w.probeKeys, w.probeIn, w.probeTqs = pk, pin, ptq
		w.vmatches, w.matchQs = stemT.ProbeVec(w.vmatches[:0], w.matchQs[:0], targetCol, pk, ts, wm)
		for mi := range w.vmatches {
			m := &w.vmatches[mi]
			j := int(m.In)
			i := int(pin[j])
			oqw := ptq[j] & m.QSet[0]
			if oqw == 0 {
				continue
			}
			for ri := range residuals {
				rr := &residuals[ri]
				if bit := uint64(1) << rr.qid; oqw&bit != 0 && !rr.holds(v, i, m.VID) {
					oqw &^= bit
				}
			}
			if oqw == 0 {
				continue
			}
			out.qsets = append(out.qsets, oqw)
			emitTuple(out, copyIdx, v, i, targetPos, m.VID)
		}
	} else {
		ptq := w.probeTqs[:0]
		for i := 0; i < v.n; i++ {
			tq := v.qsets[i*qw : (i+1)*qw]
			if !bitset.Intersects(tq, qmask) {
				continue
			}
			pk = append(pk, srcData[srcVids[i]])
			pin = append(pin, int32(i))
			for wd, mw := range qmask {
				ptq = append(ptq, tq[wd]&mw)
			}
		}
		w.probeKeys, w.probeIn, w.probeTqs = pk, pin, ptq
		w.vmatches, w.matchQs = stemT.ProbeVec(w.vmatches[:0], w.matchQs[:0], targetCol, pk, ts, wm)
		for mi := range w.vmatches {
			m := &w.vmatches[mi]
			j := int(m.In)
			i := int(pin[j])
			tq := ptq[j*qw : (j+1)*qw]
			if !bitset.Intersects(tq, m.QSet) {
				continue
			}
			// The output set is formed in the slab's spare capacity and
			// appended only if the residuals leave it non-empty.
			n := len(out.qsets)
			out.qsets = slices.Grow(out.qsets, qw)
			oq := bitset.Set(out.qsets[n : n+qw])
			for wd, mw := range m.QSet {
				oq[wd] = tq[wd] & mw
			}
			if len(residuals) > 0 {
				for ri := range residuals {
					rr := &residuals[ri]
					if oq.Contains(rr.qid) && !rr.holds(v, i, m.VID) {
						oq.Remove(rr.qid)
					}
				}
				if oq.Empty() {
					continue
				}
			}
			out.qsets = out.qsets[:n+qw]
			emitTuple(out, copyIdx, v, i, targetPos, m.VID)
		}
	}
	w.ep.joinOut += int64(out.n)
	w.ep.probeNs += time.Since(t0).Nanoseconds()
	w.foldSig(1, nd.EdgeID, nd.Lineage)
	w.ep.probeOps++
	w.countServed(nd.Q.Count())
	w.instProbes[nd.Target] += int64(len(pk)) // STeM probe keys
	w.instMatches[nd.Target] += int64(out.n)

	var divQ bitset.Set
	if nd.Div != nil {
		divQ = nd.Div.Q
	}
	w.log = append(w.log, policy.LogEntry{
		Phase:   policy.JoinPhase,
		Lineage: nd.Lineage, Q: nd.StateQ, Op: nd.EdgeID,
		NIn: v.n, NOut: out.n, NDiv: -1,
		MainLineage: nd.MainLineage, QMain: nd.Q, MainCands: nd.MainCands,
		DivQ: divQ, DivCands: nd.DivCands,
	})
	return out, len(w.log) - 1
}

// routeSel executes a routing selection: tuples keep only nd.Q's bits and
// empty tuples are dropped; vID columns are projected to nd.Keep. The
// output vector comes from the worker pool; the caller releases it.
func (w *Worker) routeSel(nd *plan.Node, v *jvec) *jvec {
	t0 := time.Now()
	keep := nd.Keep
	out := w.pool.get()
	copyIdx := w.copyIdx[:0]
	for i, inst := range v.insts {
		if keep&(1<<inst) != 0 {
			out.insts = append(out.insts, inst)
			out.vids = append(out.vids, w.pool.col())
			copyIdx = append(copyIdx, i)
		}
	}
	w.copyIdx = copyIdx
	qmask := nd.Q
	if qw := w.qw; qw == 1 {
		mask := qmask[0]
		for i := 0; i < v.n; i++ {
			q := v.qsets[i] & mask
			if q == 0 {
				continue
			}
			out.qsets = append(out.qsets, q)
			emitTuple(out, copyIdx, v, i, -1, 0)
		}
	} else {
		for i := 0; i < v.n; i++ {
			q := v.qsets[i*qw : (i+1)*qw]
			if !bitset.Intersects(q, qmask) {
				continue
			}
			for wd, mw := range qmask {
				out.qsets = append(out.qsets, q[wd]&mw)
			}
			emitTuple(out, copyIdx, v, i, -1, 0)
		}
	}
	// Routing-selection time lands in the probe bucket, matching the cost
	// model (§6.3 charges routing selections to the join phase).
	w.ep.probeNs += time.Since(t0).Nanoseconds()
	w.ep.routeSelOps++
	w.countServed(nd.Q.Count())
	return out
}

// route multicasts v's tuples to the RouLette sources of the queries in
// nd.Q. The locality-conscious router (§5.1) accumulates per-query rows in
// worker-local buffers and appends them in one batch per query; the naive
// router locks the source for every tuple.
func (w *Worker) route(nd *plan.Node, v *jvec) {
	c := w.C
	t0 := time.Now()
	// Union the present query bits into worker scratch (router fast path:
	// skip queries with no tuples at all), then decode nd.Q ∩ union.
	u := w.unionBuf
	for wd := range u {
		u[wd] = 0
	}
	for i := 0; i < v.n; i++ {
		base := i * w.qw
		for wd := 0; wd < w.qw; wd++ {
			u[wd] |= v.qsets[base+wd]
		}
	}
	u.AndWith(nd.Q)
	qids := u.AppendIDs(w.qidBuf[:0])
	w.qidBuf = qids
	if c.Opt.LocalityRouter {
		for _, qid := range qids {
			src := c.Sources[qid]
			flat := w.flat[:0]
			rows := 0
			colIdx := w.sourceCols(src, v)
			for i := 0; i < v.n; i++ {
				if !tupleHas(v, w.qw, i, qid) {
					continue
				}
				for _, ci := range colIdx {
					flat = append(flat, v.vids[ci][i])
				}
				rows++
			}
			w.flat = flat
			src.Append(flat, rows)
			w.ep.routed += int64(rows)
		}
	} else {
		for _, qid := range qids {
			src := c.Sources[qid]
			colIdx := w.sourceCols(src, v)
			for i := 0; i < v.n; i++ {
				if !tupleHas(v, w.qw, i, qid) {
					continue
				}
				row := w.flat[:0]
				for _, ci := range colIdx {
					row = append(row, v.vids[ci][i])
				}
				w.flat = row
				src.Append(row, 1)
				w.ep.routed++
			}
		}
	}
	w.ep.routeNs += time.Since(t0).Nanoseconds()
	// A vector with no tuples for nd.Q's queries routes nothing; don't count
	// a zero-query invocation (it would drag FanOut below 1).
	if len(qids) > 0 {
		w.ep.routerOps++
		w.countServed(len(qids))
	}
}

// sourceCols maps a source's required instances to v's column indices,
// reusing the worker's index buffer.
func (w *Worker) sourceCols(src *Source, v *jvec) []int {
	idx := w.colIdx[:0]
	for _, inst := range src.Insts {
		idx = append(idx, v.instIdx(inst))
	}
	w.colIdx = idx
	return idx
}

// tupleHas reports whether tuple i's query set contains qid.
func tupleHas(v *jvec, qw, i, qid int) bool {
	return v.qsets[i*qw+qid/64]&(1<<(qid%64)) != 0
}
