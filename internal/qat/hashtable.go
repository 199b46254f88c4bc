package qat

import (
	"math/bits"

	"github.com/roulette-db/roulette/internal/value"
)

// HashTable is a read-only join hash table in CSR form: open-addressed key
// slots, each holding the [start,end) range of its key's row IDs in one
// shared array. A build is two passes over the input (count, then scatter)
// and three allocations whatever the number of distinct keys; a lookup is
// one multiplicative hash and a linear probe over 16-byte slots.
type HashTable struct {
	slots []htSlot // power-of-two length, at most half full
	shift uint     // 64 - log2(len(slots))
	rows  []int32
}

// htSlot is empty while end == 0: every inserted key owns at least one row,
// so its end is positive.
type htSlot struct {
	key        int64
	start, end int32
}

// NewHashTable builds a table over the rows listed in sel, keyed by
// keyCol[row]. Rows whose key is value.NullCode are left out (a NULL join
// key matches nothing); rows sharing a key keep their order in sel.
func NewHashTable(keyCol []int64, sel []int32) *HashTable {
	size := 1 << bits.Len(uint(2*len(sel)))
	h := &HashTable{slots: make([]htSlot, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}

	// Pass 1: claim a slot per distinct key and count its rows in end.
	n := 0
	for _, r := range sel {
		if k := keyCol[r]; k != value.NullCode {
			s := h.slot(k)
			s.key = k
			s.end++
			n++
		}
	}
	// Prefix sum over the claimed slots, in slot order: both bounds start at
	// the range's end, so end stays positive and start is the scatter cursor.
	h.rows = make([]int32, n)
	var off int32
	for i := range h.slots {
		if s := &h.slots[i]; s.end > 0 {
			off += s.end
			s.start, s.end = off, off
		}
	}
	// Pass 2: scatter back to front, walking each cursor down to its
	// range's start, which leaves a key's rows in sel order.
	for i := len(sel) - 1; i >= 0; i-- {
		r := sel[i]
		if k := keyCol[r]; k != value.NullCode {
			s := h.slot(k)
			s.start--
			h.rows[s.start] = r
		}
	}
	return h
}

// slot returns key's slot: the one holding it, or the empty one where its
// probe sequence ends (whose key is still the zero value, so a search for
// key 0 stops there too).
func (h *HashTable) slot(key int64) *htSlot {
	mask := uint64(len(h.slots) - 1)
	for i := (uint64(key) * 0x9E3779B97F4A7C15) >> h.shift; ; i = (i + 1) & mask {
		if s := &h.slots[i]; s.key == key || s.end == 0 {
			return s
		}
	}
}

// Lookup returns the rows whose key equals key, in build order; the slice
// aliases the table and must not be modified. A key that was never inserted
// (value.NullCode included) returns an empty slice.
func (h *HashTable) Lookup(key int64) []int32 {
	s := h.slot(key)
	return h.rows[s.start:s.end]
}
