// Package value defines the typed-column vocabulary shared by the catalog,
// storage, and execution layers: column types, the in-band NULL sentinel,
// and dictionary encoding for string attributes.
//
// Physical columns stay []int64 everywhere — string columns hold dense
// dictionary codes and NULLs hold NullCode — so the vectorized STeM kernels
// and the zero-alloc episode step never see anything but int64. Types,
// nullability, and dictionaries live in the catalog as metadata that the
// front end (predicate typing, result decoding) consults.
package value

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ColType is the logical type of a column.
type ColType uint8

const (
	// Int64 is the default attribute type: plain 64-bit integers.
	Int64 ColType = iota
	// String is a dictionary-encoded string column: the physical column
	// holds dense int64 codes into the column's Dict.
	String
)

// String names the type for error messages and catalogs.
func (t ColType) String() string {
	switch t {
	case Int64:
		return "int64"
	case String:
		return "string"
	}
	return fmt.Sprintf("ColType(%d)", uint8(t))
}

// NullCode is the in-band NULL sentinel stored in physical columns of
// nullable attributes, and the only record of NULL. It is chosen outside
// every dictionary's code space (codes are dense and non-negative) and
// rejected at load time as data in every int64 column, so a NullCode cell
// always means SQL NULL. Filters and STeM probes treat it as never-matching.
const NullCode int64 = math.MinInt64

// ErrTypeMismatch is wrapped by every error where a predicate's literal type
// disagrees with the column's declared type (string literal on an int64
// column, integer comparison on a string column, string join across
// relations without a shared dictionary). Match with errors.Is.
var ErrTypeMismatch = errors.New("type mismatch")

// Dict is a string dictionary: a bijection between strings and dense int64
// codes starting at 0. Code (which may grow the dictionary) takes the write
// lock; Lookup/Value/Len/Values are safe for any number of concurrent
// readers, including while a single loader goroutine is appending. This is
// exactly the engine's access pattern: dictionaries are mutated only at
// load/unification time, then read concurrently by filters and result
// decoding.
type Dict struct {
	mu     sync.RWMutex
	codes  map[string]int64
	values []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{codes: make(map[string]int64)}
}

// Code returns the code for s, assigning the next dense code if s is new.
func (d *Dict) Code(s string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if c, ok := d.codes[s]; ok {
		return c
	}
	c := int64(len(d.values))
	d.codes[s] = c
	d.values = append(d.values, s)
	return c
}

// Lookup returns the code for s without assigning one. ok is false when s
// has never been seen.
func (d *Dict) Lookup(s string) (code int64, ok bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	c, ok := d.codes[s]
	return c, ok
}

// Value decodes a code back to its string; it returns "" for out-of-range
// codes (including NullCode).
func (d *Dict) Value(code int64) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if code < 0 || code >= int64(len(d.values)) {
		return ""
	}
	return d.values[code]
}

// Len returns the number of distinct strings.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.values)
}

// Values returns a copy of the code->string table.
func (d *Dict) Values() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, len(d.values))
	copy(out, d.values)
	return out
}

// Merge folds other's strings into d and returns a remap table translating
// other's codes into d's: remap[oldCode] = newCode. It is the loader-time
// dictionary-unification primitive: after remapping the columns that used
// other, both relations share d and string joins become int64 code joins.
func (d *Dict) Merge(other *Dict) []int64 {
	if other == d {
		remap := make([]int64, d.Len())
		for i := range remap {
			remap[i] = int64(i)
		}
		return remap
	}
	vals := other.Values()
	remap := make([]int64, len(vals))
	for i, s := range vals {
		remap[i] = d.Code(s)
	}
	return remap
}
