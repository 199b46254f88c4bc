package exec

import (
	"cmp"
	"math"
	"slices"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/value"
)

// GroupedFilter is a shared selection operator evaluating every query's
// predicates on one (instance, column) at once (§5.1). The optimized path
// precomputes one query-set mask per value segment, the stretch between two
// consecutive predicate endpoints, so evaluating a tuple is one mask-row
// lookup, whatever the number of queries. A column whose observed range is
// small, or small next to its segment count, indexes its rows directly by
// value; any other column (sparse int64 keys) finds a value's row by binary
// search over the segment starts. Queries without a predicate on the column
// are unaffected: each stored mask already includes their bits.
//
// Typed predicates are normalized at construction: string predicates
// resolve their literals to dictionary codes (each becoming a degenerate
// [c,c] range; literals absent from the dictionary match nothing), IS NOT
// NULL becomes the column's full observed value range, and IS NULL is
// tracked separately. NULL cells (value.NullCode) take the precomputed
// nullMask, so NULL never satisfies a range or string predicate. A query's
// several predicates on the same column combine by conjunction (matching
// SQL's WHERE semantics and the reference oracle); the ranges inside one
// predicate (an IN-list's literals) combine by union.
type GroupedFilter struct {
	Inst query.InstID
	Col  string

	col []int64 // the column data
	qw  int     // words per mask

	// Mask table: row r is masks[r*qw : (r+1)*qw], the mask of the values
	// v with bounds[r-1] <= v < bounds[r] (bounds[-1] standing for
	// math.MinInt64, the last row open above), so a value's row is the
	// number of bounds at or below it. bounds[0] is math.MinInt64+1, so row
	// 0 holds only NullCode: it is nullMask. Every other row starts from
	// outMask, what a value no range predicate matches keeps.
	bounds   []int64
	masks    []uint64
	outMask  bitset.Set
	nullMask bitset.Set

	// Direct layout: value v in [lo, lo+len(rows)) takes row rows[v-lo].
	// Any other value (NULL, one outside the column's range, every value
	// when rows is nil) finds its row by binary search over bounds.
	lo   int64
	rows []int32

	// Per-query normalized predicate groups: the build's input, kept for
	// the naive path.
	groups []predGroup
}

// directSpan and directMin bound the direct layout: a filter indexes its
// rows by value when the column's range is under directSpan times its mask
// rows, so filling the index costs at most a few times writing the masks (a
// stream rebuilds a filter on every Submit and retirement touching its
// column), or under directMin values, an index of 16 KiB. The STeM union
// table chooses its direct layout by the same span rule.
const (
	directSpan = 8
	directMin  = 1 << 12
)

// filterPred is one normalized predicate: either an IS NULL test or a union
// of inclusive code ranges. An empty range set matches nothing.
type filterPred struct {
	isNull bool
	ranges [][2]int64
}

// predGroup collects one query's predicates on the column; the query's bit
// survives a tuple only when every predicate matches (conjunction).
type predGroup struct {
	qid   int
	preds []filterPred
}

// matches evaluates the group against one cell value.
func (g *predGroup) matches(v int64) bool {
	for i := range g.preds {
		p := &g.preds[i]
		if v == value.NullCode {
			if !p.isNull {
				return false
			}
			continue
		}
		if p.isNull {
			return false
		}
		ok := false
		for _, r := range p.ranges {
			if r[0] <= v && v <= r[1] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// colRange is a column's observed range over its non-NULL cells, [lo, hi];
// an all-NULL (or empty) column has none (seen false) and keeps the empty
// range [0, -1], which makes every range predicate empty.
type colRange struct {
	lo, hi int64
	seen   bool
}

// rangeOf scans col for its colRange.
func rangeOf(col []int64) colRange {
	r := colRange{0, -1, false}
	for _, v := range col {
		if v == value.NullCode {
			continue
		}
		if !r.seen {
			r = colRange{v, v, true}
			continue
		}
		r.lo, r.hi = min(r.lo, v), max(r.hi, v)
	}
	return r
}

// NewGroupedFilter precomputes the mask table for one grouped filter.
// Predicate bounds are clamped to the column's observed non-NULL value
// range, so open-ended comparisons (MinInt64/MaxInt64 bounds) add no
// segment of their own. dict resolves string predicates and may be nil for
// plain int64 columns.
func NewGroupedFilter(nQueries int, sc *query.SelCol, col []int64, dict *value.Dict) *GroupedFilter {
	return newGroupedFilter(nQueries, sc, col, rangeOf(col), dict)
}

// newGroupedFilter is NewGroupedFilter over col's range r, computed once
// per column by the caller (columns are immutable, and a stream rebuilds a
// column's filter on every Submit and retirement that touches it).
func newGroupedFilter(nQueries int, sc *query.SelCol, col []int64, r colRange, dict *value.Dict) *GroupedFilter {
	qw := bitset.WordsFor(nQueries)
	f := &GroupedFilter{Inst: sc.Inst, Col: sc.Col, col: col, qw: qw}
	colMin, colMax, seen := r.lo, r.hi, r.seen

	// Normalize predicates into per-query groups of code-range unions.
	hasGroup := bitset.New(nQueries)
	for _, p := range sc.Preds {
		fp := filterPred{}
		switch p.Kind {
		case query.KindIsNull:
			fp.isNull = true
		case query.KindIsNotNull:
			if seen {
				fp.ranges = [][2]int64{{colMin, colMax}}
			}
		case query.KindStrings:
			if dict != nil {
				for _, s := range p.Strs {
					if c, ok := dict.Lookup(s); ok {
						fp.ranges = append(fp.ranges, [2]int64{c, c})
					}
				}
			}
		default:
			lo, hi := p.Lo, p.Hi
			if lo < colMin {
				lo = colMin
			}
			if hi > colMax {
				hi = colMax
			}
			// Predicates empty after clamping match no row; they contribute
			// no boundary and force the query's bit out of every mask.
			if lo <= hi {
				fp.ranges = [][2]int64{{lo, hi}}
			}
		}
		// A query's predicates arrive together, so its group is the last
		// one or a new one; a search covers any other order.
		gi := len(f.groups) - 1
		switch {
		case !hasGroup.Contains(p.QID):
			hasGroup.Add(p.QID)
			f.groups = append(f.groups, predGroup{qid: p.QID})
			gi++
		case f.groups[gi].qid != p.QID:
			gi = slices.IndexFunc(f.groups, func(g predGroup) bool { return g.qid == p.QID })
		}
		f.groups[gi].preds = append(f.groups[gi].preds, fp)
	}

	// Every range [lo, hi] opens at lo and closes at hi+1; a range ending at
	// math.MaxInt64 never closes (hi+1 would wrap to the smallest key). The
	// endpoints, sorted, are the bounds after math.MinInt64+1.
	type edge struct {
		at   int64
		pred int32 // index into the groups' predicates, in order
		open bool
	}
	var edges []edge
	var predGroupOf []int32
	for gi := range f.groups {
		for _, p := range f.groups[gi].preds {
			k := int32(len(predGroupOf))
			predGroupOf = append(predGroupOf, int32(gi))
			for _, r := range p.ranges {
				edges = append(edges, edge{r[0], k, true})
				if r[1] < math.MaxInt64 {
					edges = append(edges, edge{r[1] + 1, k, false})
				}
			}
		}
	}
	slices.SortFunc(edges, func(a, b edge) int { return cmp.Compare(a.at, b.at) })
	nb := 1
	for i, e := range edges {
		if e.at != math.MinInt64+1 && (i == 0 || e.at != edges[i-1].at) {
			nb++
		}
	}
	f.bounds = append(make([]int64, 0, nb), math.MinInt64+1)
	f.masks = make([]uint64, (1+nb)*qw)
	f.nullMask = f.masks[:qw:qw]

	// outMask: bits of queries with no predicate here stay set.
	f.outMask = bitset.NewFull(nQueries)
	f.outMask.AndNotWith(sc.Queries)

	// nullMask: what a NULL cell keeps. Only queries whose every predicate
	// here is IS NULL survive (plus the untouched outMask bits).
	copy(f.nullMask, f.outMask)
	for i := range f.groups {
		g := &f.groups[i]
		if g.matches(value.NullCode) {
			f.nullMask.Add(g.qid)
		}
	}

	// One sweep over the endpoints builds every segment's mask from the
	// previous one. A predicate is satisfied while one of its ranges covers
	// the segment (cover > 0, the union over an IN-list); a query's bit is
	// set while all its predicates are (sat == len(preds), the
	// conjunction), so it toggles only when sat crosses that count. An IS
	// NULL or empty predicate is never satisfied here, which keeps its
	// query's bit out of every segment.
	cover := make([]int32, len(predGroupOf))
	sat := make([]int32, len(f.groups))
	m := bitset.Set(f.masks[qw : 2*qw])
	copy(m, f.outMask)
	for _, e := range edges {
		if e.at != f.bounds[len(f.bounds)-1] {
			f.bounds = append(f.bounds, e.at)
			next := bitset.Set(f.masks[len(f.bounds)*qw : (len(f.bounds)+1)*qw])
			copy(next, m)
			m = next
		}
		gi := predGroupOf[e.pred]
		g := &f.groups[gi]
		need := int32(len(g.preds))
		if e.open {
			if cover[e.pred]++; cover[e.pred] == 1 {
				if sat[gi]++; sat[gi] == need {
					m.Add(g.qid)
				}
			}
		} else if cover[e.pred]--; cover[e.pred] == 0 {
			if sat[gi] == need {
				m.Remove(g.qid)
			}
			sat[gi]--
		}
	}

	// Direct layout over the column's range, when it is small next to the
	// table: every cell then costs one index load and one row load.
	if span := uint64(colMax) - uint64(colMin); seen && (span < directMin || span < directSpan*uint64(len(f.bounds)+1)) {
		f.lo, f.rows = colMin, make([]int32, span+1)
		j := f.searchRow(colMin)
		for d := range f.rows {
			for j < len(f.bounds) && f.bounds[j] <= colMin+int64(d) {
				j++
			}
			f.rows[d] = int32(j)
		}
	}
	return f
}

// row returns the mask row of value v: one index load in the direct
// layout, a binary search otherwise.
func (f *GroupedFilter) row(v int64) int {
	if d := uint64(v - f.lo); d < uint64(len(f.rows)) {
		return int(f.rows[d])
	}
	return f.searchRow(v)
}

// searchRow counts the bounds at or below v by binary search.
func (f *GroupedFilter) searchRow(v int64) int {
	i, j := 0, len(f.bounds)
	for i < j {
		if h := int(uint(i+j) >> 1); f.bounds[h] <= v {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// maskFor returns the query-set mask for value v.
func (f *GroupedFilter) maskFor(v int64) bitset.Set {
	r := f.row(v) * f.qw
	return f.masks[r : r+f.qw : r+f.qw]
}

// naiveMask computes the mask by scanning every predicate (the unoptimized
// baseline toggled off by Options.GroupedFilters; Fig. 18's ablation).
func (f *GroupedFilter) naiveMask(v int64, scratch bitset.Set) bitset.Set {
	scratch = f.outMask.CopyInto(scratch)
	for i := range f.groups {
		g := &f.groups[i]
		if g.matches(v) {
			scratch.Add(g.qid)
		}
	}
	return scratch
}

// Apply filters the query-set words of a tuple vector in place: for each
// tuple, its query set is intersected with the mask of its column value.
// qsets is the flat n×qw word slab and qw is the filter's mask width;
// vids addresses the column. In the same pass the tuples left with a bit
// move, in order, to the front of vids and qsets; Apply returns how many
// there are.
func (f *GroupedFilter) Apply(grouped bool, vids []int32, qsets []uint64, qw int) int {
	if !grouped {
		return f.applyNaive(vids, qsets, qw)
	}
	n := 0
	if qw == 1 {
		// Fast path for single-word query sets: the row is the word.
		for i, vid := range vids {
			q := qsets[i] & f.masks[f.row(f.col[vid])]
			vids[n], qsets[n] = vid, q
			if q != 0 {
				n++
			}
		}
		return n
	}
	for i, vid := range vids {
		r := f.row(f.col[vid]) * qw
		if keepAnd(vids, qsets, qw, i, n, f.masks[r:r+qw]) {
			n++
		}
	}
	return n
}

// applyNaive is Apply evaluating every predicate per tuple (naiveMask).
func (f *GroupedFilter) applyNaive(vids []int32, qsets []uint64, qw int) int {
	n := 0
	naive := make(bitset.Set, f.qw)
	for i, vid := range vids {
		if keepAnd(vids, qsets, qw, i, n, f.naiveMask(f.col[vid], naive)) {
			n++
		}
	}
	return n
}

// keepAnd writes tuple i with its query set intersected with m to position
// n <= i, over a tuple already read, and reports whether a bit is left. The
// caller advances n only then, so a dropped tuple's copy is overwritten by
// the next survivor; writing every tuple where it lands spares masking in
// place and then copying the survivors.
func keepAnd(vids []int32, qsets []uint64, qw, i, n int, m []uint64) bool {
	q := qsets[i*qw : (i+1)*qw]
	dst := qsets[n*qw : (n+1)*qw]
	q, dst = q[:len(m)], dst[:len(m)]
	var left uint64
	for w, mw := range m {
		x := q[w] & mw
		dst[w] = x
		left |= x
	}
	vids[n] = vids[i]
	return left != 0
}
