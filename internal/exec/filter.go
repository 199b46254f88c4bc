package exec

import (
	"sort"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/value"
)

// GroupedFilter is a shared selection operator evaluating every query's
// predicates on one (instance, column) at once (§5.1). The optimized path
// precomputes a range lookup table — one query-set mask per value segment —
// so evaluation is a binary search, logarithmic in the query count. Queries
// without a predicate on the column are unaffected: each stored mask
// already includes their bits.
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

	// Range table: value v falls in segment i when bounds[i] <= v <
	// bounds[i+1]; the matching mask is masks[i]. Values outside every
	// bound take outMask (no predicate satisfied); NullCode takes nullMask.
	bounds   []int64
	masks    []bitset.Set
	outMask  bitset.Set
	nullMask bitset.Set

	// Naive path inputs: per-query normalized predicate groups.
	groups  []predGroup
	queries bitset.Set
	n       int
}

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

// NewGroupedFilter precomputes the range table for one grouped filter.
// Predicate bounds are clamped to the column's observed non-NULL value
// range so that open-ended comparisons (MinInt64/MaxInt64 bounds) cannot
// overflow the boundary arithmetic. dict resolves string predicates and may
// be nil for plain int64 columns.
func NewGroupedFilter(nQueries int, sc *query.SelCol, col []int64, dict *value.Dict) *GroupedFilter {
	return newGroupedFilter(nQueries, sc, col, rangeOf(col), dict)
}

// newGroupedFilter is NewGroupedFilter over col's range r, computed once
// per column by the caller (columns are immutable, and a stream rebuilds a
// column's filter on every Submit and retirement that touches it).
func newGroupedFilter(nQueries int, sc *query.SelCol, col []int64, r colRange, dict *value.Dict) *GroupedFilter {
	f := &GroupedFilter{
		Inst: sc.Inst, Col: sc.Col, col: col,
		queries: sc.Queries, n: nQueries,
	}
	colMin, colMax, seen := r.lo, r.hi, r.seen

	// Normalize predicates into per-query groups of code-range unions.
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
		gi := -1
		for i := range f.groups {
			if f.groups[i].qid == p.QID {
				gi = i
				break
			}
		}
		if gi < 0 {
			f.groups = append(f.groups, predGroup{qid: p.QID})
			gi = len(f.groups) - 1
		}
		f.groups[gi].preds = append(f.groups[gi].preds, fp)
	}

	// outMask: bits of queries with no predicate here stay set.
	f.outMask = bitset.NewFull(nQueries)
	f.outMask.AndNotWith(sc.Queries)

	// nullMask: what a NULL cell keeps. Only queries whose every predicate
	// here is IS NULL survive (plus the untouched outMask bits).
	f.nullMask = f.outMask.Clone()
	for i := range f.groups {
		g := &f.groups[i]
		if g.matches(value.NullCode) {
			f.nullMask.Add(g.qid)
		}
	}

	// Boundary points: each normalized range [lo, hi] contributes lo and
	// hi+1. Collected into a sorted, deduplicated slice (rather than a hash
	// set) so construction stays allocation-light and the table is
	// immediately in binary-search order.
	for i := range f.groups {
		for _, p := range f.groups[i].preds {
			for _, r := range p.ranges {
				f.bounds = append(f.bounds, r[0], r[1]+1)
			}
		}
	}
	sort.Slice(f.bounds, func(i, j int) bool { return f.bounds[i] < f.bounds[j] })
	uniq := f.bounds[:0]
	for i, v := range f.bounds {
		if i == 0 || v != f.bounds[i-1] {
			uniq = append(uniq, v)
		}
	}
	f.bounds = uniq

	if len(f.bounds) > 0 {
		f.masks = make([]bitset.Set, len(f.bounds)-1)
		for i := range f.masks {
			m := f.outMask.Clone()
			// Bounds include every range endpoint, so a segment is either
			// fully inside or fully outside each range: probing the segment
			// start stands for the whole segment.
			lo := f.bounds[i]
			for gi := range f.groups {
				g := &f.groups[gi]
				if g.matches(lo) {
					m.Add(g.qid)
				}
			}
			f.masks[i] = m
		}
	}
	return f
}

// maskFor returns the query-set mask for value v via the range table.
func (f *GroupedFilter) maskFor(v int64) bitset.Set {
	if v == value.NullCode {
		return f.nullMask
	}
	// Rightmost segment start <= v.
	i := sort.Search(len(f.bounds), func(i int) bool { return f.bounds[i] > v }) - 1
	if i < 0 || i >= len(f.masks) {
		return f.outMask
	}
	return f.masks[i]
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
// qsets is the flat n×qw word slab and every mask is qw words; vids
// addresses the column. In the same pass the tuples left with a bit move,
// in order, to the front of vids and qsets; Apply returns how many there
// are.
func (f *GroupedFilter) Apply(grouped bool, vids []int32, qsets []uint64, qw int) int {
	n := 0
	if grouped && qw == 1 {
		// Fast path for single-word query sets.
		for i, vid := range vids {
			if q := qsets[i] & f.maskFor(f.col[vid])[0]; q != 0 {
				vids[n], qsets[n] = vid, q
				n++
			}
		}
		return n
	}
	var naive bitset.Set // the naive path's mask scratch
	if !grouped {
		naive = bitset.New(f.n)
	}
	for i, vid := range vids {
		var m bitset.Set
		if grouped {
			m = f.maskFor(f.col[vid])
		} else {
			m = f.naiveMask(f.col[vid], naive)
		}
		q := qsets[i*qw : (i+1)*qw]
		var left uint64
		for w, mw := range m {
			q[w] &= mw
			left |= q[w]
		}
		if left != 0 {
			if n != i {
				vids[n] = vid
				copy(qsets[n*qw:], q)
			}
			n++
		}
	}
	return n
}
