// Package bitset implements the query-set bitsets of the Data-Query model.
//
// RouLette annotates every tuple with the set of queries it belongs to
// (Sioulas & Ailamaki, SIGMOD 2021, §2.1). Query sets are dense bitsets over
// small integer query IDs assigned per scheduled batch. All shared operators
// (grouped filters, STeM probes, routing selections, routers) manipulate
// tuples' query sets with the algebra below.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a bitset over query IDs 0..n-1. The zero value is an empty set of
// capacity 0; use New for a set with room for n queries. A Set value is a
// slice header, so assignment aliases; use Clone for an independent copy.
type Set []uint64

// WordsFor returns the number of 64-bit words needed for n bits.
func WordsFor(n int) int { return (n + wordBits - 1) / wordBits }

// New returns an empty Set with capacity for n query IDs.
func New(n int) Set { return make(Set, WordsFor(n)) }

// NewFull returns a Set with bits 0..n-1 all set.
func NewFull(n int) Set {
	s := New(n)
	for i := range s {
		s[i] = ^uint64(0)
	}
	if rem := n % wordBits; rem != 0 && len(s) > 0 {
		s[len(s)-1] = (uint64(1) << rem) - 1
	}
	return s
}

// FromIDs returns a Set of capacity n containing exactly the given IDs.
func FromIDs(n int, ids ...int) Set {
	s := New(n)
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

// Add sets bit id. It panics if id is outside the set's capacity.
func (s Set) Add(id int) { s[id/wordBits] |= uint64(1) << (id % wordBits) }

// Remove clears bit id if present.
func (s Set) Remove(id int) {
	w := id / wordBits
	if w < len(s) {
		s[w] &^= uint64(1) << (id % wordBits)
	}
}

// Contains reports whether bit id is set.
func (s Set) Contains(id int) bool {
	w := id / wordBits
	return w < len(s) && s[w]&(uint64(1)<<(id%wordBits)) != 0
}

// Empty reports whether no bit is set.
func (s Set) Empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// CopyInto copies s into dst, growing dst if needed, and returns dst.
func (s Set) CopyInto(dst Set) Set {
	if cap(dst) < len(s) {
		dst = make(Set, len(s))
	}
	dst = dst[:len(s)]
	copy(dst, s)
	return dst
}

// AndWith intersects s with o in place. o may be shorter than s; missing
// words are treated as zero.
func (s Set) AndWith(o Set) {
	for i := range s {
		if i < len(o) {
			s[i] &= o[i]
		} else {
			s[i] = 0
		}
	}
}

// OrWith unions o into s in place. o must not be longer than s.
func (s Set) OrWith(o Set) {
	for i := range o {
		s[i] |= o[i]
	}
}

// AndNotWith removes o's bits from s in place.
func (s Set) AndNotWith(o Set) {
	for i := range o {
		if i < len(s) {
			s[i] &^= o[i]
		}
	}
}

// And returns the intersection of a and b as a new Set sized like a.
func And(a, b Set) Set {
	r := a.Clone()
	r.AndWith(b)
	return r
}

// AndNot returns a − b as a new Set.
func AndNot(a, b Set) Set {
	r := a.Clone()
	r.AndNotWith(b)
	return r
}

// Intersects reports whether a and b share at least one bit.
func Intersects(a, b Set) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i]&b[i] != 0 {
			return true
		}
	}
	return false
}

// IsSubset reports whether every bit of s is also set in o.
func (s Set) IsSubset(o Set) bool {
	for i, w := range s {
		var ow uint64
		if i < len(o) {
			ow = o[i]
		}
		if w&^ow != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and o contain exactly the same bits.
func (s Set) Equal(o Set) bool {
	n := len(s)
	if len(o) > n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		var a, b uint64
		if i < len(s) {
			a = s[i]
		}
		if i < len(o) {
			b = o[i]
		}
		if a != b {
			return false
		}
	}
	return true
}

// ForEach calls fn for every set bit in ascending order.
func (s Set) ForEach(fn func(id int)) {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// IDs returns the set bits in ascending order.
func (s Set) IDs() []int {
	return s.AppendIDs(make([]int, 0, s.Count()))
}

// AppendIDs appends the set bits in ascending order to dst and returns the
// extended slice. It is the allocation-free variant of IDs for callers that
// reuse a buffer across calls.
func (s Set) AppendIDs(dst []int) []int {
	for wi, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*wordBits+b)
			w &= w - 1
		}
	}
	return dst
}

// trimmed returns the number of words up to the last non-zero one, so sets
// differing only in trailing-zero-word padding canonicalize identically.
func (s Set) trimmed() int {
	n := len(s)
	for n > 0 && s[n-1] == 0 {
		n--
	}
	return n
}

// Span returns the half-open word range [lo, hi) that holds every set bit of
// s; an empty set spans [0, 0). Loops over a query set's words need only
// visit its span.
func (s Set) Span() (lo, hi int) {
	hi = s.trimmed()
	for lo < hi && s[lo] == 0 {
		lo++
	}
	return lo, hi
}

// Hash returns a 64-bit hash of the set's contents. Two sets with the same
// bits (regardless of trailing-zero-word padding) hash identically. It never
// allocates.
func (s Set) Hash() uint64 {
	n := s.trimmed()
	h := uint64(0x9E3779B97F4A7C15) ^ uint64(n)
	for i := 0; i < n; i++ {
		h ^= s[i]
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 29
	}
	h *= 0x94D049BB133111EB
	h ^= h >> 32
	return h
}

// AppendKey appends s's canonical key bytes — the little-endian words up to
// the last non-zero one — to dst and returns the extended slice. It is the
// allocation-free variant of Key for callers that reuse a buffer.
func (s Set) AppendKey(dst []byte) []byte {
	n := s.trimmed()
	for i := 0; i < n; i++ {
		w := s[i]
		dst = append(dst,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}

// Key returns a compact string usable as a map key. Two sets with the same
// bits (regardless of trailing-zero-word padding) produce the same key.
func (s Set) Key() string {
	return string(s.AppendKey(make([]byte, 0, len(s)*8)))
}

// String renders the set as {id, id, ...} for debugging.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(id int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", id)
	})
	b.WriteByte('}')
	return b.String()
}
