package qat_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/roulette-db/roulette/internal/qat"
	"github.com/roulette-db/roulette/internal/value"
)

// checkHashTable builds a table over sel and compares every lookup (each
// key of the column, plus keys that were never inserted) with a map built
// the way the old join table was.
func checkHashTable(t *testing.T, keyCol []int64, sel []int32) {
	t.Helper()
	want := map[int64][]int32{}
	for _, r := range sel {
		if k := keyCol[r]; k != value.NullCode {
			want[k] = append(want[k], r)
		}
	}
	ht := qat.NewHashTable(keyCol, sel)
	probes := append([]int64{0, -1, 1, value.NullCode, math.MaxInt64, math.MinInt64 + 1, 1 << 40}, keyCol...)
	for _, k := range probes {
		if got := ht.Lookup(k); !slices.Equal(got, want[k]) {
			t.Fatalf("Lookup(%d) = %v, want %v (%d rows built)", k, got, want[k], len(sel))
		}
	}
}

func allRows(n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

func TestHashTableMatchesMap(t *testing.T) {
	wide := make([]int64, 3000) // one key with more rows than a vector holds
	for i := range wide {
		wide[i] = 7
		if i%3 == 0 {
			wide[i] = int64(i)
		}
	}
	for _, tc := range []struct {
		name   string
		keyCol []int64
		sel    []int32
	}{
		{"empty", nil, nil},
		{"empty selection", []int64{1, 2, 3}, nil},
		{"single row", []int64{42}, []int32{0}},
		{"single row key zero", []int64{0}, []int32{0}},
		{"only NULL keys", []int64{value.NullCode, value.NullCode}, allRows(2)},
		{"negative keys", []int64{-1, -1, math.MinInt64 + 1, -5, 3, -5, 0, -1}, allRows(8)},
		{"NULL keys among others", []int64{4, value.NullCode, 4, 0, value.NullCode, 9}, allRows(6)},
		{"selection skips rows", []int64{1, 2, 1, 2, 1, 2, 3}, []int32{0, 2, 3, 6}},
		{"selection out of row order", []int64{5, 5, 5, 6}, []int32{2, 0, 3, 1}},
		{"one key over 1024 rows", wide, allRows(len(wide))},
	} {
		t.Run(tc.name, func(t *testing.T) { checkHashTable(t, tc.keyCol, tc.sel) })
	}
}

func TestHashTableQuick(t *testing.T) {
	prop := func(seed int64, rows uint16, distinct uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		keyCol := make([]int64, int(rows)%2500)
		for i := range keyCol {
			switch k := rng.Intn(int(distinct) + 1); {
			case rng.Intn(20) == 0:
				keyCol[i] = value.NullCode
			case rng.Intn(2) == 0:
				keyCol[i] = -int64(k) * 1_000_003 // colliding strides, negative
			default:
				keyCol[i] = int64(k)
			}
		}
		var sel []int32
		for r := range keyCol {
			if rng.Intn(4) > 0 {
				sel = append(sel, int32(r))
			}
		}
		checkHashTable(t, keyCol, sel)
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
