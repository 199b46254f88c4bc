package qlearn

import (
	"fmt"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/query"
)

// The Q-table is the hottest data structure in the system: every policy
// decision reads one Q-value per candidate operator and every log entry
// triggers one read-modify-write plus one successor bestOf scan. The
// original implementation keyed a map[string]float64 by concatenated
// (phase, inst, lineage, op, query-set) bytes, paying two string
// allocations per access. Table replaces it with an open-addressing hash
// table keyed by the packed components directly: short query sets (up to
// qInlineWords words, i.e. 192 queries) are stored inline in the entry,
// longer ones spill to a per-entry overflow slice allocated once at
// insertion. Lookups and steady-state updates never allocate.

// qInlineWords is the number of query-set words stored inline per entry.
const qInlineWords = 3

// tableEntry is one open-addressing slot. visits counts updates through
// Slot callers (Observe, snapshot imports); it weights cross-run merges
// (snapshot.go) and costs nothing on the read path.
type tableEntry struct {
	hash    uint64
	lineage uint64
	qw      [qInlineWords]uint64
	qext    []uint64 // trimmed words beyond qInlineWords; nil for short sets
	value   float64
	visits  uint32
	op      int32
	inst    uint8
	phase   uint8
	qlen    uint8 // total significant (trimmed) query-set words
	used    bool
}

// Value returns the entry's Q-value.
func (e *tableEntry) Value() float64 { return e.value }

// Table is an open-addressing Q-table over (phase, inst, lineage, Q, op)
// states. It is not safe for concurrent use; Learned serializes access
// behind its mutex. The zero value is not usable; call NewTable.
type Table struct {
	entries []tableEntry
	mask    uint64
	n       int
}

// NewTable returns an empty table with a small initial capacity.
func NewTable() *Table { return newTableSized(256) }

// newTableSized creates a table with the given power-of-two slot count
// (tests use tiny sizes to force clustering and growth).
func newTableSized(slots int) *Table {
	if slots&(slots-1) != 0 || slots <= 0 {
		panic("qlearn: table size must be a power of two")
	}
	return &Table{entries: make([]tableEntry, slots), mask: uint64(slots - 1)}
}

// Len returns the number of stored (state, action) entries.
func (t *Table) Len() int { return t.n }

// stateHash mixes the packed key components with the query-set hash.
func stateHash(phase policy.Phase, inst query.InstID, lineage uint64, op int, q bitset.Set) uint64 {
	h := q.Hash()
	h ^= lineage * 0x9E3779B97F4A7C15
	h ^= uint64(uint32(op))<<16 ^ uint64(inst)<<8 ^ uint64(uint8(phase))
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}

// trimmedWords mirrors bitset's canonicalization: words up to the last
// non-zero one.
func trimmedWords(q bitset.Set) int {
	n := len(q)
	for n > 0 && q[n-1] == 0 {
		n--
	}
	return n
}

// matches reports whether e holds exactly the given state. The hash check
// rejects almost everything; the verified-equality slow path below it makes
// collisions harmless.
func (e *tableEntry) matches(h uint64, phase policy.Phase, inst query.InstID, lineage uint64, op int, q bitset.Set, qlen int) bool {
	if e.hash != h || e.lineage != lineage || e.op != int32(op) ||
		e.inst != uint8(inst) || e.phase != uint8(phase) || int(e.qlen) != qlen {
		return false
	}
	ni := qlen
	if ni > qInlineWords {
		ni = qInlineWords
	}
	for i := 0; i < ni; i++ {
		if e.qw[i] != q[i] {
			return false
		}
	}
	for i := qInlineWords; i < qlen; i++ {
		if e.qext[i-qInlineWords] != q[i] {
			return false
		}
	}
	return true
}

// Get reads Q((L,Q),op); absent states are 0 (optimistic initialization:
// rewards are negative costs). It never allocates.
func (t *Table) Get(phase policy.Phase, inst query.InstID, lineage uint64, q bitset.Set, op int) float64 {
	qlen := trimmedWords(q)
	h := stateHash(phase, inst, lineage, op, q)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		e := &t.entries[i]
		if !e.used {
			return 0
		}
		if e.matches(h, phase, inst, lineage, op, q, qlen) {
			return e.value
		}
	}
}

// Slot returns the state's entry, inserting a zero entry if absent, so
// callers can update value and visits in one probe. The pointer is
// invalidated by the next Slot call (growth may move entries); callers
// must use it immediately and only touch value/visits. For states already
// present the call never allocates.
func (t *Table) Slot(phase policy.Phase, inst query.InstID, lineage uint64, q bitset.Set, op int) *tableEntry {
	if t.n >= len(t.entries)-len(t.entries)/4 { // load factor 3/4
		t.grow()
	}
	qlen := trimmedWords(q)
	if qlen > 255 {
		panic(fmt.Sprintf("qlearn: query set of %d words exceeds table key width", qlen))
	}
	h := stateHash(phase, inst, lineage, op, q)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		e := &t.entries[i]
		if e.used {
			if e.matches(h, phase, inst, lineage, op, q, qlen) {
				return e
			}
			continue
		}
		e.used = true
		e.hash = h
		e.lineage = lineage
		e.op = int32(op)
		e.inst = uint8(inst)
		e.phase = uint8(phase)
		e.qlen = uint8(qlen)
		ni := qlen
		if ni > qInlineWords {
			ni = qInlineWords
		}
		for w := 0; w < ni; w++ {
			e.qw[w] = q[w]
		}
		if qlen > qInlineWords {
			e.qext = append([]uint64(nil), q[qInlineWords:qlen]...)
		}
		t.n++
		return e
	}
}

// grow doubles the slot count and reinserts every entry. Overflow slices
// move with their entries, so growth allocates only the new slot array.
func (t *Table) grow() {
	old := t.entries
	t.entries = make([]tableEntry, 2*len(old))
	t.mask = uint64(len(t.entries) - 1)
	for i := range old {
		e := &old[i]
		if !e.used {
			continue
		}
		j := e.hash & t.mask
		for t.entries[j].used {
			j = (j + 1) & t.mask
		}
		t.entries[j] = *e
	}
}

// entryIntersects reports whether the entry's query-set component shares
// any bit with the given set.
func entryIntersects(e *tableEntry, q bitset.Set) bool {
	qlen := int(e.qlen)
	ni := qlen
	if ni > qInlineWords {
		ni = qInlineWords
	}
	for i := 0; i < ni && i < len(q); i++ {
		if e.qw[i]&q[i] != 0 {
			return true
		}
	}
	for i := qInlineWords; i < qlen && i < len(q); i++ {
		if e.qext[i-qInlineWords]&q[i] != 0 {
			return true
		}
	}
	return false
}

// PruneRetired removes every entry whose query-set component intersects the
// retired set and rebuilds the table sized to what remains, so a long-lived
// streaming policy does not accumulate Q-states for queries that have left
// the system. Intersection (rather than subset-of-retired) is deliberate:
// after a query's ID is recycled, a stale prior containing its bit would
// otherwise seed a new, unrelated query's Q-value. Runs off the hot path,
// at the end of a streaming GC pass under the engine's session mutex, while
// episodes may still be in flight; Learned's mutex guards concurrency. Returns the number of removed entries.
func (t *Table) PruneRetired(retired bitset.Set) int {
	kept := make([]tableEntry, 0, t.n)
	for i := range t.entries {
		e := &t.entries[i]
		if e.used && !entryIntersects(e, retired) {
			kept = append(kept, *e)
		}
	}
	removed := t.n - len(kept)
	if removed == 0 {
		return 0
	}
	slots := 256
	for slots < 2*len(kept) { // rebuild at load factor ≤ 1/2
		slots <<= 1
	}
	t.entries = make([]tableEntry, slots)
	t.mask = uint64(slots - 1)
	t.n = 0
	for i := range kept {
		e := &kept[i]
		j := e.hash & t.mask
		for t.entries[j].used {
			j = (j + 1) & t.mask
		}
		t.entries[j] = *e
		t.n++
	}
	return removed
}

// RefTable is the original string-keyed map Q-table, retained as the
// reference oracle: equivalence tests drive Table and RefTable with the
// same operation sequences and compare every result. visits mirrors
// Table's per-entry update counts (Set counts as one update).
type RefTable struct {
	m      map[string]float64
	visits map[string]uint32
}

// NewRefTable returns an empty reference table.
func NewRefTable() *RefTable {
	return &RefTable{m: make(map[string]float64), visits: make(map[string]uint32)}
}

// Len returns the number of stored entries.
func (r *RefTable) Len() int { return len(r.m) }

// Get reads Q((L,Q),op) through the map.
func (r *RefTable) Get(phase policy.Phase, inst query.InstID, lineage uint64, q bitset.Set, op int) float64 {
	return r.m[key(phase, inst, lineage, q, op)]
}

// Set stores Q((L,Q),op) through the map and counts the update.
func (r *RefTable) Set(phase policy.Phase, inst query.InstID, lineage uint64, q bitset.Set, op int, v float64) {
	k := key(phase, inst, lineage, q, op)
	r.m[k] = v
	r.visits[k]++
}

// PruneRetired mirrors Table.PruneRetired on the reference oracle, decoding
// each key's query-set suffix (the bytes past the fixed 14-byte prefix of
// phase, inst, lineage and op).
func (r *RefTable) PruneRetired(retired bitset.Set) int {
	const prefix = 14
	removed := 0
	for k := range r.m {
		qBytes := k[prefix:]
		hit := false
		for i := 0; i+8 <= len(qBytes); i += 8 {
			var w uint64
			for b := 0; b < 8; b++ {
				w |= uint64(qBytes[i+b]) << (8 * b)
			}
			if wi := i / 8; wi < len(retired) && w&retired[wi] != 0 {
				hit = true
				break
			}
		}
		if hit {
			delete(r.m, k)
			delete(r.visits, k)
			removed++
		}
	}
	return removed
}

// key builds the unique (phase, inst, L, Q, op) key: the byte concatenation
// the paper stores in its hash map. Kept for RefTable only; the hot path
// uses Table's packed keys.
func key(phase policy.Phase, inst query.InstID, lineage uint64, q bitset.Set, op int) string {
	buf := make([]byte, 0, 16+len(q)*8+4)
	buf = append(buf, byte(phase), byte(inst))
	for i := 0; i < 8; i++ {
		buf = append(buf, byte(lineage>>(8*i)))
	}
	buf = append(buf, byte(op), byte(op>>8), byte(op>>16), byte(op>>24))
	return string(q.AppendKey(buf))
}
