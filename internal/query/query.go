// Package query models SPJ sub-queries and compiles batches of them into
// the shared-operator form RouLette executes: batch-level relation
// instances, normalized equi-join edges with per-edge query sets, and
// grouped-filter columns with per-query predicate ranges.
//
// Batches come in two flavours. Compile builds a closed batch from a fixed
// query set (the original one-shot mode). NewStreamBatch builds an open
// batch with a fixed query-ID capacity that grows one query at a time via
// Extend — the compile-side half of the streaming engine: instances, edges
// and grouped filters are reused when a new query's join structure matches
// what is already compiled, and fresh IDs are allocated otherwise. Retired
// queries give their IDs back through RetireQueries/ReleaseQID, so a
// long-lived stream cycles through a bounded ID space.
package query

import (
	"fmt"
	"sort"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/value"
)

// InstID identifies a relation instance within a compiled batch. Lineages
// are uint64 bitmasks over InstIDs, so a batch holds at most 64 instances.
type InstID uint8

// MaxInstances bounds distinct relation instances per batch (lineages are
// single-word bitmasks, as in the paper's bitset-keyed Q-table).
const MaxInstances = 64

// RelRef names a relation use inside one query. Alias defaults to Table
// when empty; self-joins need distinct aliases.
type RelRef struct {
	Table string
	Alias string
}

// Join is an equi-join predicate between two aliases of one query.
type Join struct {
	LeftAlias  string
	LeftCol    string
	RightAlias string
	RightCol   string
}

// FilterKind selects a filter's predicate form. The zero value is the
// original inclusive-range predicate, so untyped literals keep working.
type FilterKind uint8

const (
	// KindRange restricts the column to the inclusive range [Lo, Hi].
	// Equality and one-sided comparisons are degenerate ranges.
	KindRange FilterKind = iota
	// KindStrings matches when the column's decoded string equals ANY of
	// Strs (string equality and IN-lists). Strings are resolved to
	// dictionary codes at executor build time; a string absent from the
	// column's dictionary simply never matches.
	KindStrings
	// KindIsNull matches exactly the NULL cells of a nullable column.
	KindIsNull
	// KindIsNotNull matches every non-NULL cell.
	KindIsNotNull
)

// Filter restricts alias.Col according to Kind. NULL cells
// (value.NullCode) never satisfy a range or string predicate; only
// KindIsNull selects them. All of a query's filters combine by conjunction
// (SQL WHERE semantics) — including several filters on the same column.
// Disjunction exists only inside a single filter: a KindStrings IN-list
// matches any of its literals.
type Filter struct {
	Alias string
	Col   string
	Kind  FilterKind
	Lo    int64
	Hi    int64
	// Strs carries KindStrings literals until the executor resolves them
	// against the column's dictionary.
	Strs []string
}

// Match evaluates the filter against one physical cell value, with dict
// supplying code resolution for string predicates (nil for non-string
// columns). It is the reference semantics the engines' vectorized paths
// must agree with: NULL never matches anything but IS NULL.
func (f *Filter) Match(v int64, dict *value.Dict) bool {
	switch f.Kind {
	case KindIsNull:
		return v == value.NullCode
	case KindIsNotNull:
		return v != value.NullCode
	case KindStrings:
		if v == value.NullCode || dict == nil {
			return false
		}
		for _, s := range f.Strs {
			if c, ok := dict.Lookup(s); ok && c == v {
				return true
			}
		}
		return false
	default:
		return v != value.NullCode && f.Lo <= v && v <= f.Hi
	}
}

// AggKind selects the host-side aggregate applied to a query's SPJ output.
type AggKind int

// Host-side aggregate kinds.
const (
	AggCount AggKind = iota // COUNT(*)
	AggSum                  // SUM(alias.col)
	AggMin                  // MIN(alias.col)
	AggMax                  // MAX(alias.col)
	AggAvg                  // AVG(alias.col), integer division
)

// NeedsColumn reports whether the aggregate reads an input column.
func (k AggKind) NeedsColumn() bool { return k != AggCount }

// Agg describes the host-side consumer of a query's RouLette source.
// GroupByAlias/GroupByCol, when set, group the aggregate; Sorted requests
// ordered group output (RouLette does not preserve interesting orders, so
// the host adds the sort, §3 "Query Optimizer").
type Agg struct {
	Kind         AggKind
	Alias        string
	Col          string
	GroupByAlias string
	GroupByCol   string
	Sorted       bool
}

// Query is one SPJ sub-query delegated to RouLette.
type Query struct {
	ID      int // assigned at batch compile time
	Tag     string
	Rels    []RelRef
	Joins   []Join
	Filters []Filter
	Agg     Agg
}

// aliasOf resolves an alias to its RelRef index, or -1.
func (q *Query) aliasIdx(alias string) int {
	for i, r := range q.Rels {
		a := r.Alias
		if a == "" {
			a = r.Table
		}
		if a == alias {
			return i
		}
	}
	return -1
}

// Instance is a batch-level relation instance: the occ-th use of Table
// within a single query. Queries using a table once all share instance
// (Table, 0), which is what lets their scans and STeMs be shared.
type Instance struct {
	ID    InstID
	Table string
	Occ   int
	// Queries contains every query that uses this instance.
	Queries bitset.Set
}

// Edge is a normalized shared join operator: an equi-join between two
// instances on a fixed column pair. Queries joining the same instance pair
// on the same columns share the edge.
type Edge struct {
	ID   int
	A    InstID
	ACol string
	B    InstID
	BCol string
	// Queries contains every query whose join list includes this edge.
	Queries bitset.Set
}

// Other returns the endpoint opposite to inst, and ok=false if inst is not
// an endpoint.
func (e *Edge) Other(inst InstID) (InstID, bool) {
	switch inst {
	case e.A:
		return e.B, true
	case e.B:
		return e.A, true
	}
	return 0, false
}

// Col returns the join column on the given endpoint.
func (e *Edge) Col(inst InstID) string {
	if inst == e.A {
		return e.ACol
	}
	return e.BCol
}

// Pred is one query's predicate inside a grouped filter. Kind follows
// Filter: the zero value is a plain inclusive range, string predicates keep
// their literals until the executor resolves them against the column's
// dictionary. A query's several preds on one column combine by conjunction.
type Pred struct {
	QID  int
	Kind FilterKind
	Lo   int64
	Hi   int64
	Strs []string
}

// SelCol is a shared selection operator: a grouped filter evaluating every
// query's predicates on one (instance, column) pair at once.
type SelCol struct {
	ID    int
	Inst  InstID
	Col   string
	Preds []Pred
	// Queries contains every query with at least one predicate on the column.
	Queries bitset.Set
}

// Residual is a cycle-closing equi-join predicate of one query: its join
// graph's spanning tree drives the shared plan, and the residual is applied
// as a per-query filter at the probe that brings its second endpoint into
// the lineage (the standard treatment of cyclic join graphs in n-ary
// symmetric joins).
type Residual struct {
	QID  int
	A    InstID
	ACol string
	B    InstID
	BCol string
}

// Batch is a compiled set of queries sharing instances, edges and grouped
// filters. It is the unit RouLette schedules and adapts over.
type Batch struct {
	// Queries is indexed by query ID and as long as the query-ID capacity
	// from the start (slots never used are nil): a retirement callback reads
	// its query's entry outside the session mutex while Extend fills another,
	// so Extend must never change the slice header. queryInst likewise.
	Queries []*Query
	N       int // number of query-ID slots in use (high-water mark)

	// Cap is the query-ID capacity bitsets are sized for. Compile sets it
	// to the batch size; NewStreamBatch fixes it up front so the executor's
	// query-set width never changes while queries stream in and out.
	Cap int

	Insts     []Instance
	Edges     []Edge
	SelCols   []SelCol
	Residuals []Residual

	// pos and qidAt map between query IDs and the caller's positions (the
	// index into the slice Compile was given); nil on stream batches, which
	// number queries as they arrive.
	pos   []int // query ID -> caller position
	qidAt []int // caller position -> query ID

	selColsOf [][]int // instance -> SelCol IDs on it
	instIdx   map[instKey]InstID
	queryInst [][]InstID // query -> instance per RelRef position
	edgeIdx   map[edgeKey]int
	selIdx    map[selKey]int
	freeIDs   []int // released query IDs available for reuse (streaming)
}

type instKey struct {
	table string
	occ   int
}

// QCap returns the query-ID capacity every query bitset is sized for.
func (b *Batch) QCap() int {
	if b.Cap > b.N {
		return b.Cap
	}
	return b.N
}

// newBatch creates an empty batch with the given query-ID capacity.
func newBatch(cap int) *Batch {
	return &Batch{
		Cap:       cap,
		Queries:   make([]*Query, cap),
		queryInst: make([][]InstID, cap),
		instIdx:   make(map[instKey]InstID),
		edgeIdx:   make(map[edgeKey]int),
		selIdx:    make(map[selKey]int),
	}
}

// NewStreamBatch creates an empty open batch with a fixed query-ID
// capacity, ready to grow via Extend.
func NewStreamBatch(cap int) *Batch {
	if cap <= 0 {
		cap = 64
	}
	return newBatch(cap)
}

// Compile validates queries and builds the batch's shared-operator form.
// Every query's join graph must be connected; a spanning tree of it drives
// the shared plan and any cycle-closing joins become residual predicates.
//
// Query IDs 0..len(qs)-1 are assigned by shape: a stable sort on
// TemplateSig, so the queries of one template take contiguous IDs and keep
// the caller's order among themselves (a single-template batch keeps it
// outright). An operator serves queries of few templates, so its query set
// then spans few words of the bitset. Pos and QIDAt translate between IDs and
// caller positions; errors name the caller position. Instances, edges and
// grouped filters are still interned in caller order, so their IDs do not
// depend on the numbering.
func Compile(qs []*Query) (*Batch, error) {
	b := newBatch(len(qs))
	sigs := make([]uint64, len(qs))
	b.pos = make([]int, len(qs))
	b.qidAt = make([]int, len(qs))
	for i, q := range qs {
		sigs[i] = TemplateSig(q)
		b.pos[i] = i
	}
	sort.SliceStable(b.pos, func(x, y int) bool { return sigs[b.pos[x]] < sigs[b.pos[y]] })
	for qid, p := range b.pos {
		b.qidAt[p] = qid
	}
	for p, q := range qs {
		qid := b.qidAt[p]
		plan, err := b.planQuery(qid, q)
		if err != nil {
			return nil, err
		}
		b.applyQuery(qid, q, plan)
	}
	b.N = len(qs)
	return b, nil
}

// Pos returns the caller position of query qid: its index in the slice
// Compile numbered. On a stream batch it is qid itself.
func (b *Batch) Pos(qid int) int {
	if b.pos == nil {
		return qid
	}
	return b.pos[qid]
}

// QIDAt returns the query ID Compile assigned to caller position p (the
// inverse of Pos).
func (b *Batch) QIDAt(p int) int {
	if b.qidAt == nil {
		return p
	}
	return b.qidAt[p]
}

// Free reports how many query-ID slots are available for Extend.
func (b *Batch) Free() int { return b.Cap - b.N + len(b.freeIDs) }

// Extend merges one query into the batch, reusing existing instances,
// edges and grouped filters where its join structure matches and
// allocating fresh IDs otherwise. Validation is identical to Compile; a
// failed Extend leaves the batch unchanged. The query is assigned a free
// query ID (a released one when available); that ID is returned with the
// extension's delta, which the executor applies to grow its own state.
func (b *Batch) Extend(q *Query) (int, ExtendDelta, error) {
	qi := b.N
	if n := len(b.freeIDs); n > 0 {
		qi = b.freeIDs[n-1]
	}
	p, err := b.planQuery(qi, q)
	if err != nil {
		return 0, ExtendDelta{}, err
	}
	if qi == b.N && b.N >= b.QCap() {
		return 0, ExtendDelta{}, fmt.Errorf("query: batch full (%d query IDs in use, none released)", b.N)
	}
	if n := len(b.freeIDs); n > 0 && qi == b.freeIDs[n-1] {
		b.freeIDs = b.freeIDs[:n-1]
	}
	return qi, b.applyQuery(qi, q, p), nil
}

// queryPlan is the validated, side-effect-free form of one query's
// contribution to the batch, expressed over projected instance IDs (IDs
// that interning will assign, computed without mutating the batch).
type queryPlan struct {
	insts     []InstID  // per RelRef position
	newInsts  []instKey // instances to intern, in projected-ID order
	treeJoins []planJoin
	residuals []Residual
	filters   []planFilter
}

type planJoin struct {
	a    InstID
	aCol string
	b    InstID
	bCol string
}

type planFilter struct {
	inst InstID
	col  string
	kind FilterKind
	lo   int64
	hi   int64
	strs []string
}

// planQuery validates q as query qi and computes its batch delta without
// mutating anything. Errors name the query by its caller position.
func (b *Batch) planQuery(qi int, q *Query) (*queryPlan, error) {
	pos := b.Pos(qi)
	if len(q.Rels) == 0 {
		return nil, fmt.Errorf("query %d (%s): no relations", pos, q.Tag)
	}
	p := &queryPlan{insts: make([]InstID, len(q.Rels))}

	// Map each RelRef to a batch instance: the k-th occurrence of a table
	// within this query is instance (table, k). New instances receive
	// projected IDs continuing the batch's interning order.
	occ := make(map[string]int)
	seen := make(map[string]bool)
	projected := make(map[instKey]InstID)
	for ri, r := range q.Rels {
		alias := r.Alias
		if alias == "" {
			alias = r.Table
		}
		if seen[alias] {
			return nil, fmt.Errorf("query %d (%s): duplicate alias %q", pos, q.Tag, alias)
		}
		seen[alias] = true
		k := occ[r.Table]
		occ[r.Table] = k + 1
		key := instKey{r.Table, k}
		id, ok := b.instIdx[key]
		if !ok {
			id, ok = projected[key]
		}
		if !ok {
			next := len(b.Insts) + len(p.newInsts)
			if next >= MaxInstances {
				return nil, fmt.Errorf("query %d (%s): batch exceeds %d relation instances", pos, q.Tag, MaxInstances)
			}
			id = InstID(next)
			projected[key] = id
			p.newInsts = append(p.newInsts, key)
		}
		p.insts[ri] = id
	}

	if len(q.Joins) < len(q.Rels)-1 {
		return nil, fmt.Errorf("query %d (%s): join graph disconnected (%d rels need at least %d joins, have %d)",
			pos, q.Tag, len(q.Rels), len(q.Rels)-1, len(q.Joins))
	}
	// Union-find: joins that merge components become shared tree edges;
	// cycle-closing joins become per-query residual predicates.
	parent := make([]int, len(q.Rels))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	merges := 0
	for _, j := range q.Joins {
		li := q.aliasIdx(j.LeftAlias)
		ri := q.aliasIdx(j.RightAlias)
		if li < 0 || ri < 0 {
			return nil, fmt.Errorf("query %d (%s): join references unknown alias %q or %q", pos, q.Tag, j.LeftAlias, j.RightAlias)
		}
		ia, ca, ib, cb := p.insts[li], j.LeftCol, p.insts[ri], j.RightCol
		if ia > ib || (ia == ib && ca > cb) {
			ia, ca, ib, cb = ib, cb, ia, ca
		}
		a, b2 := find(li), find(ri)
		if a == b2 {
			if ia == ib {
				return nil, fmt.Errorf("query %d (%s): join of %s.%s with itself", pos, q.Tag, j.LeftAlias, j.LeftCol)
			}
			p.residuals = append(p.residuals, Residual{QID: qi, A: ia, ACol: ca, B: ib, BCol: cb})
			continue
		}
		parent[a] = b2
		merges++
		p.treeJoins = append(p.treeJoins, planJoin{ia, ca, ib, cb})
	}
	if merges != len(q.Rels)-1 {
		return nil, fmt.Errorf("query %d (%s): join graph disconnected", pos, q.Tag)
	}
	for _, f := range q.Filters {
		fi := q.aliasIdx(f.Alias)
		if fi < 0 {
			return nil, fmt.Errorf("query %d (%s): filter references unknown alias %q", pos, q.Tag, f.Alias)
		}
		switch f.Kind {
		case KindRange:
			if f.Lo > f.Hi {
				return nil, fmt.Errorf("query %d (%s): filter on %s.%s has empty range [%d,%d]", pos, q.Tag, f.Alias, f.Col, f.Lo, f.Hi)
			}
		case KindStrings:
			if len(f.Strs) == 0 {
				return nil, fmt.Errorf("query %d (%s): string filter on %s.%s has no literals", pos, q.Tag, f.Alias, f.Col)
			}
		}
		p.filters = append(p.filters, planFilter{p.insts[fi], f.Col, f.Kind, f.Lo, f.Hi, f.Strs})
	}
	return p, nil
}

// ExtendDelta reports what an applied extension added or touched, so the
// executor can grow its compiled state incrementally. Extend's delta covers
// one query; WholeDelta's covers a batch built from nothing.
type ExtendDelta struct {
	QIDs        []int    // queries the extension added
	NewInsts    []InstID // instances created by this extension
	NewEdges    []int    // edge IDs created by this extension
	NewSelCols  []int    // grouped-filter IDs created by this extension
	TouchedSels []int    // pre-existing grouped filters that gained predicates
}

// applyQuery mutates the batch according to a validated plan and returns
// what it added. It cannot fail.
func (b *Batch) applyQuery(qi int, q *Query, p *queryPlan) ExtendDelta {
	delta := ExtendDelta{QIDs: []int{qi}}
	q.ID = qi

	for _, key := range p.newInsts {
		id := InstID(len(b.Insts))
		b.instIdx[key] = id
		b.Insts = append(b.Insts, Instance{ID: id, Table: key.table, Occ: key.occ, Queries: bitset.New(b.QCap())})
		b.selColsOf = append(b.selColsOf, nil)
		delta.NewInsts = append(delta.NewInsts, id)
	}

	for _, j := range p.treeJoins {
		k := edgeKey{j.a, j.aCol, j.b, j.bCol}
		ei, ok := b.edgeIdx[k]
		if !ok {
			ei = len(b.Edges)
			b.edgeIdx[k] = ei
			b.Edges = append(b.Edges, Edge{ID: ei, A: j.a, ACol: j.aCol, B: j.b, BCol: j.bCol, Queries: bitset.New(b.QCap())})
			delta.NewEdges = append(delta.NewEdges, ei)
		}
		// Copy-on-write: operator query sets reachable from a published
		// executor view are frozen — the streaming engine snapshots them
		// into lock-free episode state (exec view, EpisodeInput.SelOps), so
		// in-place bit flips would race with running episodes.
		nq := b.Edges[ei].Queries.Clone()
		nq.Add(qi)
		b.Edges[ei].Queries = nq
	}
	b.Residuals = append(b.Residuals, p.residuals...)

	touched := make(map[int]bool)
	for _, f := range p.filters {
		k := selKey{f.inst, f.col}
		si, ok := b.selIdx[k]
		if !ok {
			si = len(b.SelCols)
			b.selIdx[k] = si
			b.SelCols = append(b.SelCols, SelCol{ID: si, Inst: f.inst, Col: f.col, Queries: bitset.New(b.QCap())})
			b.selColsOf[f.inst] = append(b.selColsOf[f.inst], si)
			delta.NewSelCols = append(delta.NewSelCols, si)
		} else if !touched[si] && !containsInt(delta.NewSelCols, si) {
			touched[si] = true
			delta.TouchedSels = append(delta.TouchedSels, si)
		}
		sc := &b.SelCols[si]
		sc.Preds = append(sc.Preds, Pred{QID: qi, Kind: f.kind, Lo: f.lo, Hi: f.hi, Strs: f.strs})
		nq := sc.Queries.Clone() // copy-on-write, see the edge sets above
		nq.Add(qi)
		sc.Queries = nq
	}

	for _, inst := range p.insts {
		nq := b.Insts[inst].Queries.Clone() // copy-on-write
		nq.Add(qi)
		b.Insts[inst].Queries = nq
	}

	b.Queries[qi] = q
	b.queryInst[qi] = p.insts
	if qi == b.N {
		b.N++
	}
	return delta
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// WholeDelta is the delta that builds the batch's operators from nothing:
// every instance, edge and grouped filter is new, in ID order, and every
// query in use is added. The executor compiles a batch by applying it.
func (b *Batch) WholeDelta() ExtendDelta {
	var d ExtendDelta
	for qid := 0; qid < b.N; qid++ {
		if b.Queries[qid] != nil {
			d.QIDs = append(d.QIDs, qid)
		}
	}
	for i := range b.Insts {
		d.NewInsts = append(d.NewInsts, InstID(i))
	}
	for i := range b.Edges {
		d.NewEdges = append(d.NewEdges, i)
	}
	for i := range b.SelCols {
		d.NewSelCols = append(d.NewSelCols, i)
	}
	return d
}

// RollbackExtend undoes the most recent Extend, given its delta: the
// appended instances, edges and grouped filters are removed again (they
// are the tails of their slices, so batch IDs stay dense and aligned with
// the executor's parallel arrays), the query's bits and predicates leave
// the surviving operators, and the query ID returns to the free pool.
// Valid only while no other Extend or RetireQueries has run since.
func (b *Batch) RollbackExtend(d ExtendDelta) {
	if len(d.NewSelCols) > 0 {
		first := d.NewSelCols[0]
		for _, si := range d.NewSelCols {
			sc := &b.SelCols[si]
			delete(b.selIdx, selKey{sc.Inst, sc.Col})
		}
		b.SelCols = b.SelCols[:first]
		for i := range b.selColsOf {
			l := b.selColsOf[i]
			for len(l) > 0 && l[len(l)-1] >= first {
				l = l[:len(l)-1]
			}
			b.selColsOf[i] = l
		}
	}
	if len(d.NewEdges) > 0 {
		first := d.NewEdges[0]
		for _, ei := range d.NewEdges {
			e := &b.Edges[ei]
			delete(b.edgeIdx, edgeKey{e.A, e.ACol, e.B, e.BCol})
		}
		b.Edges = b.Edges[:first]
	}
	if len(d.NewInsts) > 0 {
		first := int(d.NewInsts[0])
		for _, ii := range d.NewInsts {
			in := &b.Insts[ii]
			delete(b.instIdx, instKey{in.Table, in.Occ})
		}
		b.Insts = b.Insts[:first]
		b.selColsOf = b.selColsOf[:first]
	}
	// Scrub the query's bits, predicates and residuals from what survives.
	r := bitset.FromIDs(b.QCap(), d.QIDs...)
	b.RetireQueries(r)
	for _, qid := range d.QIDs {
		b.ReleaseQID(qid)
	}
}

// RetireQueries clears the given queries from the batch's shared-operator
// sets: their bits leave every instance/edge/grouped-filter query set,
// their predicates leave the grouped filters, and their residuals are
// dropped. It returns the IDs of pre-existing grouped filters whose
// predicate lists changed (the executor rebuilds those). Query-ID slots
// are NOT freed — call ReleaseQID once all executor state is swept.
func (b *Batch) RetireQueries(retired bitset.Set) (changedSels []int) {
	// Query sets are replaced, not masked in place: published executor
	// views and in-flight episode state alias the old backing arrays
	// (copy-on-write contract, see applyQuery).
	for i := range b.Insts {
		b.Insts[i].Queries = bitset.AndNot(b.Insts[i].Queries, retired)
	}
	for i := range b.Edges {
		b.Edges[i].Queries = bitset.AndNot(b.Edges[i].Queries, retired)
	}
	for i := range b.SelCols {
		sc := &b.SelCols[i]
		if !bitset.Intersects(sc.Queries, retired) {
			continue
		}
		kept := sc.Preds[:0]
		for _, p := range sc.Preds {
			if !retired.Contains(p.QID) {
				kept = append(kept, p)
			}
		}
		sc.Preds = kept
		sc.Queries = bitset.AndNot(sc.Queries, retired)
		changedSels = append(changedSels, sc.ID)
	}
	keptRes := b.Residuals[:0]
	for _, r := range b.Residuals {
		if !retired.Contains(r.QID) {
			keptRes = append(keptRes, r)
		}
	}
	b.Residuals = keptRes
	return changedSels
}

// ReleaseQID returns a retired query's ID to the free pool for reuse by a
// later Extend. The caller must have cleared all executor state referring
// to the ID first (RetireQueries plus STeM/policy sweeps).
func (b *Batch) ReleaseQID(qid int) {
	b.freeIDs = append(b.freeIDs, qid)
}

type edgeKey struct {
	a    InstID
	aCol string
	b    InstID
	bCol string
}

type selKey struct {
	inst InstID
	col  string
}

// SelColsOf returns the IDs of grouped filters on instance inst.
func (b *Batch) SelColsOf(inst InstID) []int { return b.selColsOf[inst] }

// QueryInsts returns the instance of each RelRef position of query qid.
func (b *Batch) QueryInsts(qid int) []InstID { return b.queryInst[qid] }

// InstOfAlias resolves a query's alias to its batch instance.
func (b *Batch) InstOfAlias(qid int, alias string) (InstID, bool) {
	inst, _, ok := b.RelOfAlias(qid, alias)
	return inst, ok
}

// RelOfAlias resolves a query's alias to its batch instance and that
// instance's table. It reads the query's own entries only, never Insts, so
// a retirement callback may call it outside the session mutex while Extend
// appends instances.
func (b *Batch) RelOfAlias(qid int, alias string) (InstID, string, bool) {
	q := b.Queries[qid]
	i := q.aliasIdx(alias)
	if i < 0 {
		return 0, "", false
	}
	return b.queryInst[qid][i], q.Rels[i].Table, true
}

// QueryEdges returns the IDs of the edges used by query qid.
func (b *Batch) QueryEdges(qid int) []int {
	var out []int
	for _, e := range b.Edges {
		if e.Queries.Contains(qid) {
			out = append(out, e.ID)
		}
	}
	return out
}

// FindInstance resolves the batch instance for the occ-th use of table, as
// assigned at compile time.
func (b *Batch) FindInstance(table string, occ int) (InstID, bool) {
	id, ok := b.instIdx[instKey{table, occ}]
	return id, ok
}
