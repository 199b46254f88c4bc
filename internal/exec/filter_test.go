package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/value"
)

// randomFilterInputs draws one grouped filter's inputs for nQ query slots:
// a column, a dictionary of "s0".."s399" (codes 0..399) for IN-lists, and
// one to three predicates for most queries, of every kind, in query order
// or shuffled. A dense column
// holds a few hundred consecutive values; a sparse one spreads its cells
// over the whole int64 range and always holds a value at or below
// MinInt64/2 and one at or above MaxInt64/2. Either holds NULL cells.
func randomFilterInputs(rng *rand.Rand, nQ int, sparse bool) (*query.SelCol, []int64, *value.Dict) {
	dict := value.NewDict()
	for c := 0; c < 400; c++ {
		dict.Code(fmt.Sprintf("s%d", c))
	}
	col := make([]int64, 50+rng.Intn(200))
	var lo, hi int64
	if sparse {
		extremes := []int64{math.MaxInt64, math.MaxInt64 - 1, math.MinInt64 + 1, math.MinInt64 + 2, -1, 0, 1}
		for i := range col {
			switch rng.Intn(3) {
			case 0:
				col[i] = extremes[rng.Intn(len(extremes))]
			case 1:
				col[i] = rng.Int63()
			default:
				col[i] = -rng.Int63()
			}
		}
		col[0], col[1] = math.MinInt64/2-rng.Int63n(1<<40), math.MaxInt64/2+rng.Int63n(1<<40)
		if rng.Intn(2) == 0 {
			col[2] = math.MaxInt64
		}
		lo, hi = math.MinInt64+1, math.MaxInt64
	} else {
		base, span := rng.Int63n(800)-400, 1+rng.Int63n(300)
		for i := range col {
			col[i] = base + rng.Int63n(span)
		}
		lo, hi = base-20, base+span+20
	}
	for i := range col {
		if rng.Intn(10) == 0 {
			col[i] = value.NullCode
		}
	}
	// point draws a predicate endpoint: near the column's values, or open.
	point := func() int64 {
		switch rng.Intn(8) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		case 2, 3:
			if v := col[rng.Intn(len(col))]; v != value.NullCode {
				return v + int64(rng.Intn(3)) - 1 // may wrap at the extremes
			}
		}
		if sparse {
			return int64(rng.Uint64())
		}
		return lo + rng.Int63n(hi-lo+1)
	}
	sc := &query.SelCol{Inst: 0, Col: "c", Queries: bitset.New(nQ)}
	for qid := 0; qid < nQ; qid++ {
		if rng.Intn(5) == 0 {
			continue // no predicate here: the query's bit passes every tuple
		}
		sc.Queries.Add(qid)
		for n := 1 + rng.Intn(3); n > 0; n-- {
			p := query.Pred{QID: qid}
			switch k := rng.Intn(10); {
			case k == 0:
				p.Kind = query.KindIsNull
			case k == 1:
				p.Kind = query.KindIsNotNull
			case k < 4:
				p.Kind = query.KindStrings
				for m := 1 + rng.Intn(4); m > 0; m-- {
					// Codes inside and outside the column's range, and one
					// literal the dictionary lacks.
					p.Strs = append(p.Strs, fmt.Sprintf("s%d", rng.Intn(420)))
				}
			default:
				p.Lo, p.Hi = point(), point()
				if rng.Intn(4) != 0 && p.Lo > p.Hi {
					p.Lo, p.Hi = p.Hi, p.Lo // mostly non-empty; some stay empty
				}
			}
			sc.Preds = append(sc.Preds, p)
		}
	}
	if rng.Intn(2) == 0 {
		// A query's predicates need not arrive together.
		rng.Shuffle(len(sc.Preds), func(i, j int) { sc.Preds[i], sc.Preds[j] = sc.Preds[j], sc.Preds[i] })
	}
	return sc, col, dict
}

// predOracle is the mask a column value v keeps, read straight off the
// predicates: a query's bit survives when every one of its predicates holds
// (queries without one always survive). It agrees with the filter on NULL
// and on values inside the column's range, the only values a cell holds.
func predOracle(nQ int, sc *query.SelCol, dict *value.Dict, v int64) bitset.Set {
	m := bitset.NewFull(nQ)
	for _, p := range sc.Preds {
		ok := false
		switch p.Kind {
		case query.KindIsNull:
			ok = v == value.NullCode
		case query.KindIsNotNull:
			ok = v != value.NullCode
		case query.KindStrings:
			for _, s := range p.Strs {
				if c, found := dict.Lookup(s); found && c == v && v != value.NullCode {
					ok = true
				}
			}
		default:
			ok = v != value.NullCode && p.Lo <= v && v <= p.Hi
		}
		if !ok {
			m.Remove(p.QID)
		}
	}
	return m
}

// TestGroupedFilterEquivalentToNaive is the grouped filter's differential
// test: on random filters of one, two and 32 words over dense and sparse
// columns, the mask table (either layout) must give every value the mask
// naiveMask computes from the normalized predicates, and every cell the
// mask read off the raw predicates (predOracle); Apply must keep exactly
// the tuples and words the per-tuple naive masks keep.
func TestGroupedFilterEquivalentToNaive(t *testing.T) {
	var layouts [2]int // filters built direct, by search
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nQ := []int{1 + rng.Intn(64), 65 + rng.Intn(64), 1985 + rng.Intn(64)}[rng.Intn(3)]
		sparse := rng.Intn(2) == 0
		sc, col, dict := randomFilterInputs(rng, nQ, sparse)
		gf := NewGroupedFilter(nQ, sc, col, dict)
		if gf.rows != nil {
			layouts[0]++
		} else {
			layouts[1]++
		}
		if sparse && gf.rows != nil {
			t.Errorf("seed %d: a sparse column took the direct layout over %d values", seed, len(gf.rows))
			return false
		}
		scratch := bitset.New(nQ)
		r := rangeOf(col)
		check := func(v int64) bool {
			got, want := gf.maskFor(v), gf.naiveMask(v, scratch)
			if !got.Equal(want) {
				t.Errorf("seed %d (%d queries, sparse %t): maskFor(%d) holds %v beyond the naive mask and lacks %v", seed, nQ, sparse, v, bitset.AndNot(got, want), bitset.AndNot(want, got))
				return false
			}
			if v == value.NullCode || r.seen && r.lo <= v && v <= r.hi {
				if o := predOracle(nQ, sc, dict, v); !got.Equal(o) {
					t.Errorf("seed %d (%d queries, sparse %t): maskFor(%d) holds %v beyond the predicates' mask and lacks %v", seed, nQ, sparse, v, bitset.AndNot(got, o), bitset.AndNot(o, got))
					return false
				}
			}
			return true
		}
		if !check(value.NullCode) {
			return false
		}
		if sparse {
			for _, v := range col {
				if !check(v) {
					return false
				}
			}
		} else if r.seen {
			for v := r.lo - 1; v <= r.hi+1; v++ {
				if !check(v) {
					return false
				}
			}
		}

		// Apply, both paths, against masking every tuple naively then
		// compacting.
		qw := bitset.WordsFor(nQ)
		vids := make([]int32, 2*len(col))
		qsets := make([]uint64, len(vids)*qw)
		for i := range vids {
			vids[i] = int32(rng.Intn(len(col)))
			for w := 0; w < qw; w++ {
				qsets[i*qw+w] = rng.Uint64() | rng.Uint64()
			}
			bitset.Set(qsets[i*qw : (i+1)*qw]).AndWith(bitset.NewFull(nQ))
		}
		wantV := append([]int32(nil), vids...)
		wantQ := append([]uint64(nil), qsets...)
		for i, vid := range wantV {
			bitset.Set(wantQ[i*qw : (i+1)*qw]).AndWith(gf.naiveMask(col[vid], scratch))
		}
		wantV, wantQ = compact(wantV, wantQ, qw)
		for _, grouped := range []bool{true, false} {
			gotV := append([]int32(nil), vids...)
			gotQ := append([]uint64(nil), qsets...)
			n := gf.Apply(grouped, gotV, gotQ, qw)
			if !reflect.DeepEqual(gotV[:n], wantV) || !reflect.DeepEqual(gotQ[:n*qw], wantQ) {
				t.Errorf("seed %d (%d queries, sparse %t), grouped %t: Apply kept %d tuples, the naive masks %d, or their words differ", seed, nQ, sparse, grouped, n, len(wantV))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if !t.Failed() && (layouts[0] == 0 || layouts[1] == 0) {
		t.Errorf("%d filters built direct, %d by search: both layouts must be exercised", layouts[0], layouts[1])
	}
}

// TestGroupedFilterMaxInt64 pins the top of the int64 range: a range that
// ends at math.MaxInt64 has no closing boundary, so a column holding that
// value keeps it in every mask that reaches it.
func TestGroupedFilterMaxInt64(t *testing.T) {
	col := []int64{0, 5, math.MaxInt64, value.NullCode}
	sc := &query.SelCol{
		Inst: 0, Col: "c",
		Preds: []query.Pred{
			{QID: 0, Kind: query.KindIsNotNull},
			{QID: 1, Lo: 5, Hi: math.MaxInt64},
			{QID: 2, Lo: math.MaxInt64, Hi: math.MaxInt64},
			{QID: 3, Lo: math.MinInt64, Hi: 4},
		},
		Queries: bitset.FromIDs(4, 0, 1, 2, 3),
	}
	gf := NewGroupedFilter(4, sc, col, nil)
	for _, c := range []struct {
		v    int64
		want []int
	}{
		{0, []int{0, 3}},
		{5, []int{0, 1}},
		{math.MaxInt64 - 1, []int{0, 1}},
		{math.MaxInt64, []int{0, 1, 2}},
		{value.NullCode, nil},
	} {
		if got := gf.maskFor(c.v).IDs(); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("maskFor(%d) = %v, want %v", c.v, got, c.want)
		}
	}
}

// BenchmarkGroupedFilterApply times the grouped filter's kernel on 1024
// tuples: 1, 64 and 2048 queries, each with one random range, over a
// column of values 0..999, and 64 queries over a column spread across the
// int64 range (the search layout). Every iteration restores the input
// vector, which Apply compacts in place; ns/tuple includes that copy.
func BenchmarkGroupedFilterApply(b *testing.B) {
	const tuples = 1024
	for _, c := range []struct {
		name   string
		nQ     int
		sparse bool
	}{{"1q", 1, false}, {"64q", 64, false}, {"2048q", 2048, false}, {"sparse-64q", 64, true}} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			col := make([]int64, tuples)
			for i := range col {
				if c.sparse {
					col[i] = int64(rng.Uint64())
				} else {
					col[i] = int64(rng.Intn(1000))
				}
			}
			sc := &query.SelCol{Inst: 0, Col: "c", Queries: bitset.NewFull(c.nQ)}
			for qid := 0; qid < c.nQ; qid++ {
				lo := int64(rng.Intn(900))
				hi := lo + int64(rng.Intn(100))
				if c.sparse {
					lo, hi = col[rng.Intn(tuples)], col[rng.Intn(tuples)]
					lo, hi = min(lo, hi), max(lo, hi)
				}
				sc.Preds = append(sc.Preds, query.Pred{QID: qid, Lo: lo, Hi: hi})
			}
			gf := NewGroupedFilter(c.nQ, sc, col, nil)
			qw := bitset.WordsFor(c.nQ)
			rows := make([]int32, tuples)
			for i := range rows {
				rows[i] = int32(i)
			}
			all := make([]uint64, tuples*qw)
			for i := 0; i < tuples; i++ {
				copy(all[i*qw:], bitset.NewFull(c.nQ))
			}
			vids := make([]int32, tuples)
			qsets := make([]uint64, len(all))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(vids, rows)
				copy(qsets, all)
				gf.Apply(true, vids, qsets, qw)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tuples), "ns/tuple")
		})
	}
}
