// Package exec implements RouLette's adaptive multi-query executor (§5):
// vectorized episode execution over shared operators — range-based grouped
// filters, symmetric-join prune filters, STeM probes, routing selections
// and locality-conscious routers — plus the execution log that feeds the
// learned policy.
package exec

import (
	"fmt"
	"sync/atomic"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/cost"
	"github.com/roulette-db/roulette/internal/plan"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/stem"
	"github.com/roulette-db/roulette/internal/storage"
	"github.com/roulette-db/roulette/internal/value"
)

// Options toggles the executor's §5.2 optimizations; the ablation
// experiments (Figs. 17–18) flip them individually.
type Options struct {
	VectorSize     int  // tuples per episode vector (paper: 1024)
	GroupedFilters bool // range-table predicate evaluation vs naive per-predicate loops
	LocalityRouter bool // two-pass batched multicast vs per-tuple appends
	Pruning        bool // symmetric join pruning via semi-join filters
	CollectRows    bool // retain routed tuples in sources (off = count only)

	// CollectStats is read by nothing: every counter is always on. It
	// remains only because the benchmark module assigns it; delete the two
	// together.
	CollectStats bool

	// Hooks observes or perturbs episode execution (fault injection,
	// chaos tests). The zero value is a no-op. Deliberately NOT reachable
	// from the public roulette.Options — it exists for the engine's own
	// chaos tests, and every other Options/Config field maps to a public
	// knob (see DESIGN.md "Observability").
	Hooks Hooks
}

// DefaultOptions enables every optimization with the paper's vector size.
func DefaultOptions() Options {
	return Options{
		VectorSize:     1024,
		GroupedFilters: true,
		LocalityRouter: true,
		Pruning:        true,
		CollectRows:    true,
	}
}

// selOpRef resolves a stable selection-op ID to its implementation.
type selOpRef struct {
	prune bool
	idx   int32 // SelCol ID (grouped filter) or PruneOps index
}

// PruneOp is a symmetric-join prune filter: tuples of Inst keep a query's
// bit only if they have a join partner in Other's (fully ingested) STeM
// over EdgeID (§5.2, Fig. 10).
type PruneOp struct {
	ID       int // stable selection-op ID
	Bit      int // stable bit within Inst's selection-op list
	Inst     query.InstID
	EdgeID   int
	Other    query.InstID
	LocalCol string // join column on Inst
	OtherCol string // indexed join column on Other
}

// Context is the session-level execution state shared by all workers: the
// compiled batch, per-instance tables and STeMs, grouped filters, prune
// operators, per-query sources, and counters.
type Context struct {
	B     *query.Batch
	DB    *storage.Database
	Model *cost.Model
	Opt   Options

	Versions *stem.Versions
	Stems    []*stem.STeM     // per instance
	Tables   []*storage.Table // per instance

	Filters  []*GroupedFilter // per SelCol ID
	PruneOps []PruneOp        // prune filters, any order

	// selOps is the stable selection-operator ID space: op ID i refers to
	// either a grouped filter or a prune op. IDs are append-only, so they
	// stay stable while a streaming batch grows (a later-created grouped
	// filter must not collide with an existing prune op's ID).
	selOps []selOpRef

	// Each grouped filter's stable bit within its instance's applied-op
	// mask and its stable selection-op ID (a prune op carries both itself).
	filterBits []int // per SelCol ID
	filterOpID []int // per SelCol ID: its stable selection-op ID

	// bitsUsed[inst] counts assigned per-instance selection-op bits (each
	// instance's applied-operator mask is one 64-bit word); keySeen[inst]
	// dedupes STeM key columns. Persisted so each ApplyExtend continues the
	// assignment where the previous one left off.
	bitsUsed []int
	keySeen  []map[string]bool

	// edge column slices, resolved once.
	edgeACol [][]int64
	edgeBCol [][]int64

	// residual column slices, parallel to B.Residuals.
	resACol [][]int64
	resBCol [][]int64

	// stemKeyCols[inst] lists the join columns indexed by inst's STeM, and
	// stemKeySlices the corresponding column data.
	stemKeyCols   [][]string
	stemKeySlices [][][]int64

	Sources []*Source // per query

	ReqInsts plan.RequiredInsts

	// view is the published episode-hot-path snapshot of everything above.
	// Workers load it once per episode (one atomic pointer load) and never
	// touch the mutable master fields; the engine republishes after every
	// admission or retirement under its session mutex (publish-then-advance:
	// the view is stored before the change becomes schedulable, so any
	// episode carrying a new query's bit runs against a view that includes
	// it).
	view atomic.Pointer[view]

	Stats Stats

	// InstStats holds per-instance STeM traffic counters, folded at episode
	// boundaries. Indexed by instance ID; only the first len(B.Insts)
	// entries are in use.
	InstStats []InstStat
}

// InstStat counts one instance's STeM traffic: entries inserted, probe
// lookups against it, and match tuples it emitted.
type InstStat struct {
	Inserts atomic.Int64
	Probes  atomic.Int64
	Matches atomic.Int64
}

// view is one immutable snapshot of the context's episode-hot-path state.
// Every slice is a fresh header copy of the master field at publish time;
// the engine's copy-on-write contract (query sets replaced, filters
// replaced, never mutated in place) keeps the reachable data frozen.
type view struct {
	g query.Graph

	stems    []*stem.STeM
	tables   []*storage.Table
	filters  []*GroupedFilter
	pruneOps []PruneOp
	selOps   []selOpRef

	edgeACol [][]int64
	edgeBCol [][]int64
	resACol  [][]int64
	resBCol  [][]int64

	stemKeyCols   [][]string
	stemKeySlices [][][]int64
}

// PublishView snapshots the context's hot-path state into a fresh view and
// publishes it with one atomic store. Callers hold whatever lock serializes
// context mutation (the engine's session mutex). NewContext, ApplyExtend
// and RebuildFilters publish automatically; the engine republishes
// explicitly after batch-level changes that bypass those (none today).
func (c *Context) PublishView() {
	v := &view{
		g:             c.B.Snapshot(),
		stems:         append([]*stem.STeM(nil), c.Stems...),
		tables:        append([]*storage.Table(nil), c.Tables...),
		filters:       append([]*GroupedFilter(nil), c.Filters...),
		pruneOps:      append([]PruneOp(nil), c.PruneOps...),
		selOps:        append([]selOpRef(nil), c.selOps...),
		edgeACol:      append([][]int64(nil), c.edgeACol...),
		edgeBCol:      append([][]int64(nil), c.edgeBCol...),
		resACol:       append([][]int64(nil), c.resACol...),
		resBCol:       append([][]int64(nil), c.resBCol...),
		stemKeyCols:   append([][]string(nil), c.stemKeyCols...),
		stemKeySlices: append([][][]int64(nil), c.stemKeySlices...),
	}
	c.view.Store(v)
}

// loadView returns the current published view (never nil after NewContext).
func (c *Context) loadView() *view { return c.view.Load() }

// Graph returns the current view's immutable join-graph snapshot, safe to
// read lock-free.
func (c *Context) Graph() *query.Graph { return &c.view.Load().g }

// StemOp is a deferred STeM structural operation returned by ApplyExtend:
// it must run only while no episode is inserting into Inst (the engine's
// per-instance insert fence), because it swaps the STeM's copy-on-write
// state. Probes need no fence.
type StemOp struct {
	Inst  query.InstID
	Apply func()
}

// NewContext compiles the execution context for a batch over db. It
// allocates the empty context and applies the whole batch as one extension
// (query.Batch.WholeDelta), so a compiled batch takes exactly the path a live
// submission takes through ApplyExtend: grouped filters get op IDs 0..S-1 in
// SelCol order, then each edge its two prune ops.
func NewContext(b *query.Batch, db *storage.Database, opt Options, model *cost.Model) (*Context, error) {
	if model == nil {
		model = cost.Default()
	}
	if opt.VectorSize <= 0 {
		opt.VectorSize = 1024
	}
	c := &Context{B: b, DB: db, Model: model, Opt: opt, Versions: stem.NewVersions()}
	// Sources span the full query-ID capacity so the slice header never
	// changes while a streaming batch admits queries (slots stay nil until
	// ApplyExtend fills them).
	c.Sources = make([]*Source, b.QCap())
	c.ReqInsts = func(qid int) uint64 {
		var m uint64
		for _, in := range c.Sources[qid].Insts {
			m |= 1 << in
		}
		return m
	}
	// Full length up front: workers index it outside the session mutex while
	// ApplyExtend adds instances under it, so the slice header never changes.
	c.InstStats = make([]InstStat, query.MaxInstances)
	// Every instance is new, so no STeM needs a deferred index: no StemOps.
	if _, err := c.ApplyExtend(b.WholeDelta()); err != nil {
		return nil, err
	}
	return c, nil
}

// addPruneOps registers the two symmetric prune filters of one edge,
// assigning stable op IDs and per-instance bits.
func (c *Context) addPruneOps(e *query.Edge) {
	for _, side := range [2]struct {
		inst, other        query.InstID
		localCol, otherCol string
	}{
		{e.A, e.B, e.ACol, e.BCol},
		{e.B, e.A, e.BCol, e.ACol},
	} {
		id := len(c.selOps)
		c.selOps = append(c.selOps, selOpRef{prune: true, idx: int32(len(c.PruneOps))})
		c.PruneOps = append(c.PruneOps, PruneOp{
			ID: id, Bit: c.bitsUsed[side.inst], Inst: side.inst, EdgeID: e.ID,
			Other: side.other, LocalCol: side.localCol, OtherCol: side.otherCol,
		})
		c.bitsUsed[side.inst]++
	}
}

// ApplyExtend grows the execution context to cover a batch extension
// (query.Batch.Extend already applied to c.B): new instances get tables and
// STeMs, new edges resolve their columns and may add STeM indexes to
// already-built STeMs, new grouped filters and prune ops receive stable op
// IDs past the existing ID space, predicate changes rebuild the affected
// grouped filters, and the new queries get their sources. It is also the
// only compiler: NewContext applies a whole batch through it.
//
// Callers hold the engine's session mutex; running episodes are NOT paused.
// The hot path reads only the published view, which ApplyExtend republishes
// after mutating the master fields, so in-flight episodes keep their old
// view and later episodes see the extension. STeM index additions on
// already-built STeMs are not applied inline: they are returned as deferred
// StemOps the engine runs once the instance's in-flight inserts drain (the
// per-instance insert fence) — AddIndex backfills every entry present when
// it runs, so entries inserted between this call and the op are covered.
// Validation failures (missing table/column, per-instance selection-op
// budget) are returned before any mutation, leaving the context consistent
// — the caller then retires the query's ID from the batch.
func (c *Context) ApplyExtend(d query.ExtendDelta) ([]StemOp, error) {
	b := c.B

	// ---- Validate everything first, mutating nothing. --------------------
	for _, ii := range d.NewInsts {
		if c.DB.Table(b.Insts[ii].Table) == nil {
			return nil, fmt.Errorf("exec: no table %q", b.Insts[ii].Table)
		}
	}
	tableOf := func(inst query.InstID) *storage.Table {
		if int(inst) < len(c.Tables) {
			return c.Tables[inst]
		}
		return c.DB.Table(b.Insts[inst].Table)
	}
	for _, ei := range d.NewEdges {
		e := &b.Edges[ei]
		if !tableOf(e.A).Rel.HasColumn(e.ACol) || !tableOf(e.B).Rel.HasColumn(e.BCol) {
			return nil, fmt.Errorf("exec: join column missing on edge %d (%s.%s = %s.%s)",
				e.ID, b.Insts[e.A].Table, e.ACol, b.Insts[e.B].Table, e.BCol)
		}
		if err := checkJoinTypes(tableOf(e.A), e.ACol, tableOf(e.B), e.BCol); err != nil {
			return nil, err
		}
	}
	for ri := len(c.resACol); ri < len(b.Residuals); ri++ {
		r := &b.Residuals[ri]
		if !tableOf(r.A).Rel.HasColumn(r.ACol) || !tableOf(r.B).Rel.HasColumn(r.BCol) {
			return nil, fmt.Errorf("exec: residual join column missing (%s.%s = %s.%s)",
				b.Insts[r.A].Table, r.ACol, b.Insts[r.B].Table, r.BCol)
		}
		if err := checkJoinTypes(tableOf(r.A), r.ACol, tableOf(r.B), r.BCol); err != nil {
			return nil, err
		}
	}
	for _, si := range d.NewSelCols {
		sc := &b.SelCols[si]
		if !tableOf(sc.Inst).Rel.HasColumn(sc.Col) {
			return nil, fmt.Errorf("exec: filter column %s missing on %s", sc.Col, b.Insts[sc.Inst].Table)
		}
		if err := checkSelColTypes(tableOf(sc.Inst), sc); err != nil {
			return nil, err
		}
	}
	// A streamed-in query can add typed predicates to an existing grouped
	// filter; those land in TouchedSels, so their columns are re-validated.
	for _, si := range d.TouchedSels {
		sc := &b.SelCols[si]
		if err := checkSelColTypes(tableOf(sc.Inst), sc); err != nil {
			return nil, err
		}
	}
	// Per-instance selection-op budget: each new grouped filter takes one
	// bit on its instance, each new edge two prune bits (one per endpoint).
	// Checked in instance order, so the same batch always reports the same
	// instance.
	used := make([]int, len(b.Insts))
	copy(used, c.bitsUsed)
	for _, si := range d.NewSelCols {
		used[b.SelCols[si].Inst]++
	}
	if c.Opt.Pruning {
		for _, ei := range d.NewEdges {
			used[b.Edges[ei].A]++
			used[b.Edges[ei].B]++
		}
	}
	for inst, n := range used {
		if n > 64 {
			return nil, fmt.Errorf("exec: instance %s has %d selection ops (max 64)", b.Insts[inst].Table, n)
		}
	}
	srcInsts := make([][]query.InstID, len(d.QIDs))
	for i, qid := range d.QIDs {
		insts, err := requiredInsts(b, qid)
		if err != nil {
			return nil, err
		}
		srcInsts[i] = insts
	}

	// ---- Apply. -----------------------------------------------------------
	for _, ii := range d.NewInsts {
		t := c.DB.Table(b.Insts[ii].Table)
		c.Tables = append(c.Tables, t)
		c.stemKeyCols = append(c.stemKeyCols, nil)
		c.stemKeySlices = append(c.stemKeySlices, nil)
		c.keySeen = append(c.keySeen, make(map[string]bool))
		c.bitsUsed = append(c.bitsUsed, 0)
		c.Stems = append(c.Stems, nil) // created below, once key columns are known
	}

	newInst := make(map[query.InstID]bool, len(d.NewInsts))
	for _, ii := range d.NewInsts {
		newInst[ii] = true
	}
	var ops []StemOp
	addKey := func(inst query.InstID, col string) {
		if c.keySeen[inst][col] {
			return
		}
		c.keySeen[inst][col] = true
		c.stemKeyCols[inst] = append(c.stemKeyCols[inst], col)
		c.stemKeySlices[inst] = append(c.stemKeySlices[inst], c.Tables[inst].Col(col))
		if !newInst[inst] {
			// Existing STeM learns a new key column: index its entries from
			// the base table (entries store vIDs, so the key is a lookup).
			// Deferred behind the instance's insert fence — AddIndex swaps
			// the STeM's copy-on-write state, and its backfill covers every
			// entry inserted before it runs.
			colData := c.Tables[inst].Col(col)
			st := c.Stems[inst]
			ops = append(ops, StemOp{Inst: inst, Apply: func() {
				st.AddIndex(col, func(vid int32) int64 { return colData[vid] })
			}})
		}
	}
	for _, ei := range d.NewEdges {
		e := &b.Edges[ei]
		c.edgeACol = append(c.edgeACol, c.Tables[e.A].Col(e.ACol))
		c.edgeBCol = append(c.edgeBCol, c.Tables[e.B].Col(e.BCol))
		addKey(e.A, e.ACol)
		addKey(e.B, e.BCol)
	}
	for ri := len(c.resACol); ri < len(b.Residuals); ri++ {
		r := &b.Residuals[ri]
		c.resACol = append(c.resACol, c.Tables[r.A].Col(r.ACol))
		c.resBCol = append(c.resBCol, c.Tables[r.B].Col(r.BCol))
	}
	for _, ii := range d.NewInsts {
		c.Stems[ii] = stem.New(c.Versions, c.stemKeyCols[ii], b.QCap(), c.Tables[ii].NumRows())
	}

	for _, si := range d.NewSelCols {
		sc := &b.SelCols[si]
		c.Filters = append(c.Filters, c.newFilter(si))
		c.filterBits = append(c.filterBits, c.bitsUsed[sc.Inst])
		c.bitsUsed[sc.Inst]++
		c.filterOpID = append(c.filterOpID, len(c.selOps))
		c.selOps = append(c.selOps, selOpRef{prune: false, idx: int32(si)})
	}
	for _, si := range d.TouchedSels {
		c.Filters[si] = c.newFilter(si)
	}
	if c.Opt.Pruning {
		for _, ei := range d.NewEdges {
			c.addPruneOps(&b.Edges[ei])
		}
	}

	for i, qid := range d.QIDs {
		c.Sources[qid] = NewSource(srcInsts[i], c.Opt.CollectRows)
	}
	c.PublishView()
	return ops, nil
}

// RebuildFilters re-creates the grouped filters whose predicate lists
// changed (after RetireQueries dropped retired predicates) and republishes
// the view. Filters are replaced, never mutated, so episodes running on the
// old view keep consistent (stale but correct) filters. Caller holds the
// engine's session mutex.
func (c *Context) RebuildFilters(selIDs []int) {
	for _, si := range selIDs {
		c.Filters[si] = c.newFilter(si)
	}
	c.PublishView()
}

// newFilter builds grouped filter si over its column, with the catalog
// dictionary backing the column (nil for plain int64 columns).
func (c *Context) newFilter(si int) *GroupedFilter {
	sc := &c.B.SelCols[si]
	t := c.Tables[sc.Inst]
	var dict *value.Dict
	if cc := t.Rel.Column(sc.Col); cc != nil {
		dict = cc.Dict
	}
	return NewGroupedFilter(c.B.QCap(), sc, t.Col(sc.Col), dict)
}

// checkSelColTypes verifies every predicate of a grouped filter against the
// column's declared type: string predicates need a string column, integer
// ranges need an int64 column, IS [NOT] NULL works on either. Violations
// wrap value.ErrTypeMismatch.
func checkSelColTypes(t *storage.Table, sc *query.SelCol) error {
	cc := t.Rel.Column(sc.Col)
	if cc == nil {
		return nil // missing columns are reported by the caller's existence check
	}
	for _, p := range sc.Preds {
		switch p.Kind {
		case query.KindStrings:
			if cc.Type != value.String || cc.Dict == nil {
				return fmt.Errorf("exec: string predicate on %s column %s.%s: %w",
					cc.Type, t.Rel.Name, sc.Col, value.ErrTypeMismatch)
			}
		case query.KindRange:
			if cc.Type == value.String {
				return fmt.Errorf("exec: integer predicate on string column %s.%s: %w",
					t.Rel.Name, sc.Col, value.ErrTypeMismatch)
			}
		}
	}
	return nil
}

// checkJoinTypes verifies the endpoints of an equi-join agree on type, and
// that string joins share one dictionary object so code equality is string
// equality. Violations wrap value.ErrTypeMismatch.
func checkJoinTypes(ta *storage.Table, aCol string, tb *storage.Table, bCol string) error {
	ca, cb := ta.Rel.Column(aCol), tb.Rel.Column(bCol)
	if ca == nil || cb == nil {
		return nil
	}
	aStr, bStr := ca.Type == value.String, cb.Type == value.String
	if aStr != bStr {
		return fmt.Errorf("exec: join %s.%s = %s.%s mixes %s and %s columns: %w",
			ta.Rel.Name, aCol, tb.Rel.Name, bCol, ca.Type, cb.Type, value.ErrTypeMismatch)
	}
	if aStr && ca.Dict != cb.Dict {
		return fmt.Errorf("exec: string join %s.%s = %s.%s needs a shared dictionary (unify the columns' dictionaries at load time): %w",
			ta.Rel.Name, aCol, tb.Rel.Name, bCol, value.ErrTypeMismatch)
	}
	return nil
}

// requiredInsts derives which instances' vIDs a query's host consumer needs.
func requiredInsts(b *query.Batch, qid int) ([]query.InstID, error) {
	q := b.Queries[qid]
	need := map[query.InstID]bool{}
	add := func(alias string) error {
		if alias == "" {
			return nil
		}
		inst, ok := b.InstOfAlias(qid, alias)
		if !ok {
			return fmt.Errorf("exec: query %d aggregate references unknown alias %q", qid, alias)
		}
		need[inst] = true
		return nil
	}
	if q.Agg.Kind.NeedsColumn() {
		if err := add(q.Agg.Alias); err != nil {
			return nil, err
		}
	}
	if err := add(q.Agg.GroupByAlias); err != nil {
		return nil, err
	}
	var out []query.InstID
	for _, inst := range b.QueryInsts(qid) {
		if need[inst] {
			out = append(out, inst)
		}
	}
	return out, nil
}

// SelOpsFor assembles the currently available selection-phase operators on
// inst: every grouped filter, plus — when pruning is enabled — each prune
// op whose eligible query set (queries that have fully scanned the opposite
// relation) is non-empty. prunable(edgeID, other) returns that eligible set
// or nil.
func (c *Context) SelOpsFor(inst query.InstID, prunable func(edgeID int, other query.InstID) bitset.Set) []plan.SelOpInfo {
	var ops []plan.SelOpInfo
	for _, si := range c.B.SelColsOf(inst) {
		ops = append(ops, plan.SelOpInfo{ID: c.filterOpID[si], Bit: c.filterBits[si], Queries: c.B.SelCols[si].Queries})
	}
	if c.Opt.Pruning && prunable != nil {
		for i := range c.PruneOps {
			p := &c.PruneOps[i]
			if p.Inst != inst {
				continue
			}
			elig := prunable(p.EdgeID, p.Other)
			if elig == nil || elig.Empty() {
				continue
			}
			ops = append(ops, plan.SelOpInfo{ID: p.ID, Bit: p.Bit, Queries: elig})
		}
	}
	return ops
}

// NumSelOps returns the size of the selection-operator ID space (grouped
// filters plus prune ops), for policies that track per-op statistics.
func (c *Context) NumSelOps() int { return len(c.selOps) }

// SelOpDesc describes one stable selection-operator ID for callers that
// must canonicalize the ID space (the policy-persistence remap builder):
// which instance the op runs on, its stable bit within that instance's
// applied-operator mask, and its identity — a grouped filter's SelCol ID
// or a prune op's edge.
type SelOpDesc struct {
	ID     int
	Inst   query.InstID
	Bit    int
	Prune  bool
	SelCol int    // grouped-filter SelCol ID; -1 for prune ops
	EdgeID int    // prune op's edge; -1 for grouped filters
	Col    string // filter column, or the prune op's local join column
}

// SelOpDescs lists every selection operator in stable-ID order.
func (c *Context) SelOpDescs() []SelOpDesc {
	out := make([]SelOpDesc, len(c.selOps))
	for id, ref := range c.selOps {
		d := SelOpDesc{ID: id, Prune: ref.prune, SelCol: -1, EdgeID: -1}
		if ref.prune {
			p := &c.PruneOps[ref.idx]
			d.Inst, d.Bit, d.EdgeID, d.Col = p.Inst, p.Bit, p.EdgeID, p.LocalCol
		} else {
			sc := &c.B.SelCols[ref.idx]
			d.Inst, d.Bit, d.SelCol, d.Col = sc.Inst, c.filterBits[ref.idx], sc.ID, sc.Col
		}
		out[id] = d
	}
	return out
}
