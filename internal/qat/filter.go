package qat

import (
	"fmt"
	"math"
	"slices"

	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
	"github.com/roulette-db/roulette/internal/value"
)

// column resolves a column by name, reporting (not panicking on) a name the
// relation lacks: queries arrive from outside the engine.
func column(t *storage.Table, name string) ([]int64, error) {
	i := t.Rel.ColIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("qat: relation %q has no column %q", t.Rel.Name, name)
	}
	return t.ColAt(i), nil
}

// boundFilter is a query.Filter resolved against its table once, at plan
// time: the column slice plus either an inclusive value range or, for a
// string IN-list with two or more known literals, the resolved dictionary
// codes. Every other kind reduces to a range that already encodes the NULL
// rule (value.NullCode is math.MinInt64, below every storable value):
//
//	RANGE [lo,hi]  -> [max(lo, NullCode+1), hi]
//	IS NULL        -> [NullCode, NullCode]
//	IS NOT NULL    -> [NullCode+1, MaxInt64]
//	= 'known'      -> [code, code]
//
// A range is held as lo and span = hi-lo, so membership is the single
// unsigned comparison uint64(v-lo) <= span, which the compiler turns into a
// branch-free increment of the selection cursor. A filter nothing can
// satisfy (an inverted range, no known literal) is an empty code list.
type boundFilter struct {
	col   []int64
	lo    int64
	span  uint64
	codes []int64 // non-nil: match any of these codes; lo/span unused
}

func rangeFilter(col []int64, lo, hi int64) boundFilter {
	if lo > hi {
		return boundFilter{col: col, codes: []int64{}}
	}
	return boundFilter{col: col, lo: lo, span: uint64(hi - lo)}
}

// bindFilters binds a relation's filters; the selection kernels agree with
// query.Filter.Match cell for cell.
func bindFilters(t *storage.Table, fs []query.Filter) ([]boundFilter, error) {
	if len(fs) == 0 {
		return nil, nil
	}
	out := make([]boundFilter, len(fs))
	for i := range fs {
		f := &fs[i]
		col, err := column(t, f.Col)
		if err != nil {
			return nil, err
		}
		switch f.Kind {
		case query.KindIsNull:
			out[i] = rangeFilter(col, value.NullCode, value.NullCode)
		case query.KindIsNotNull:
			out[i] = rangeFilter(col, value.NullCode+1, math.MaxInt64)
		case query.KindStrings:
			codes := []int64{}
			if dict := t.Rel.Column(f.Col).Dict; dict != nil {
				for _, s := range f.Strs {
					if c, ok := dict.Lookup(s); ok {
						codes = append(codes, c)
					}
				}
			}
			if len(codes) == 1 {
				out[i] = rangeFilter(col, codes[0], codes[0])
			} else {
				out[i] = boundFilter{col: col, codes: codes}
			}
		default:
			out[i] = rangeFilter(col, max(f.Lo, value.NullCode+1), f.Hi)
		}
	}
	return out, nil
}

// selectRange appends to dst the rows of [from,to) the filter accepts, in
// row order. dst must have room for to-from more entries.
func (b *boundFilter) selectRange(from, to int, dst []int32) []int32 {
	n := len(dst)
	dst = dst[:n+to-from]
	col := b.col[from:to]
	if b.codes != nil {
		for i, v := range col {
			dst[n] = int32(from + i)
			if slices.Contains(b.codes, v) {
				n++
			}
		}
		return dst[:n]
	}
	lo, span := b.lo, b.span
	for i, v := range col {
		dst[n] = int32(from + i)
		if uint64(v-lo) <= span {
			n++
		}
	}
	return dst[:n]
}

// refine keeps, in place and in order, the rows of sel the filter accepts.
func (b *boundFilter) refine(sel []int32) []int32 {
	col := b.col
	n := 0
	if b.codes != nil {
		for _, r := range sel {
			sel[n] = r
			if slices.Contains(b.codes, col[r]) {
				n++
			}
		}
		return sel[:n]
	}
	lo, span := b.lo, b.span
	for _, r := range sel {
		sel[n] = r
		if uint64(col[r]-lo) <= span {
			n++
		}
	}
	return sel[:n]
}

// Select appends to dst the rows of [from,to) that pass all of the step's
// filters, in row order, one filter (column) at a time: the first filter
// scans the row range into a selection vector, the others refine it in
// place. dst is grown if it lacks room for to-from more entries.
func (s *Step) Select(from, to int, dst []int32) []int32 {
	base := len(dst)
	dst = slices.Grow(dst, to-from)
	if len(s.bound) == 0 {
		for r := from; r < to; r++ {
			dst = append(dst, int32(r))
		}
		return dst
	}
	dst = s.bound[0].selectRange(from, to, dst)
	for i := 1; i < len(s.bound) && len(dst) > base; i++ {
		dst = dst[:base+len(s.bound[i].refine(dst[base:]))]
	}
	return dst
}
