package qlearn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/bits"
	"sort"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/query"
)

// This file is the cross-batch persistence layer of the Q-table
// (DESIGN.md §13): a run's learned state is exported into a Snapshot keyed
// by *template-relative* identities (canonical query indices, instances,
// edge and selection-operator IDs chosen by the caller's Remap), encoded
// as a versioned checksummed binary blob, and re-imported into a later
// run by remapping every component back onto that run's live positional
// IDs. All of it runs off the episode hot path: export under the
// streaming GC / batch teardown, import at submit/compile time.

// Remap translates every ID space a Q-table entry references from one
// naming (live positional IDs, or canonical template-relative indices)
// into another. Each slice maps source ID -> target ID; -1 (or an
// out-of-range source) drops entries referencing that component, which is
// how stale state — a retired query's bit, an operator the new run does
// not have — is filtered during import.
type Remap struct {
	// NQ is the target query-ID capacity: remapped query sets are sized
	// for NQ bits.
	NQ     int
	Query  []int   // query ID -> query ID
	Inst   []int   // instance ID -> instance ID
	JoinOp []int   // join-phase op (edge ID) -> edge ID
	SelOp  []int   // sel-phase op (global sel-op ID) -> sel-op ID
	SelBit [][]int // [source instance][per-instance lineage bit] -> bit
}

// SnapEntry is one exported (state, action) pair. Q holds the trimmed
// query-set words.
type SnapEntry struct {
	Phase   uint8
	Inst    uint8
	Op      int32
	Lineage uint64
	Value   float64
	Visits  uint32
	Q       []uint64
}

// Snapshot is a template-relative export of a Q-table.
type Snapshot struct {
	NQueries int
	Entries  []SnapEntry
}

// mapID translates one ID, reporting false for dropped ones.
func mapID(m []int, id int) (int, bool) {
	if id < 0 || id >= len(m) || m[id] < 0 {
		return 0, false
	}
	return m[id], true
}

// mapBits translates a 64-bit lineage mask bit-by-bit.
func mapBits(mask uint64, m []int) (uint64, bool) {
	var out uint64
	for mask != 0 {
		b := bits.TrailingZeros64(mask)
		mask &= mask - 1
		t, ok := mapID(m, b)
		if !ok || t >= 64 {
			return 0, false
		}
		out |= uint64(1) << uint(t)
	}
	return out, true
}

// remapEntry rewrites every component of se through rm. ok=false drops the
// entry (it references a component absent from the target naming).
func remapEntry(se SnapEntry, rm *Remap) (SnapEntry, bool) {
	out := SnapEntry{Phase: se.Phase, Value: se.Value, Visits: se.Visits}

	switch policy.Phase(se.Phase) {
	case policy.JoinPhase:
		// inst is semantically constant (ChooseJoin always passes 0), so it
		// is preserved, not remapped; lineage is the visited-instance
		// bitmask; op is the shared edge ID.
		op, ok := mapID(rm.JoinOp, int(se.Op))
		if !ok {
			return out, false
		}
		lin, ok := mapBits(se.Lineage, rm.Inst)
		if !ok {
			return out, false
		}
		out.Inst, out.Op, out.Lineage = se.Inst, int32(op), lin
	case policy.SelPhase:
		// inst disambiguates; lineage is the per-instance applied-operator
		// bit mask; op is the global selection-operator ID.
		inst, ok := mapID(rm.Inst, int(se.Inst))
		if !ok || inst > math.MaxUint8 {
			return out, false
		}
		op, ok := mapID(rm.SelOp, int(se.Op))
		if !ok {
			return out, false
		}
		var selBits []int
		if int(se.Inst) < len(rm.SelBit) {
			selBits = rm.SelBit[se.Inst]
		}
		lin, ok := mapBits(se.Lineage, selBits)
		if !ok {
			return out, false
		}
		out.Inst, out.Op, out.Lineage = uint8(inst), int32(op), lin
	default:
		return out, false
	}

	// Query-set bits remap through rm.Query into an NQ-capacity set. An
	// entry mentioning an unmapped query is stale: drop it.
	q := bitset.New(rm.NQ)
	for wi, w := range se.Q {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			w &= w - 1
			t, ok := mapID(rm.Query, wi*64+b)
			if !ok || t >= rm.NQ {
				return out, false
			}
			q.Add(t)
		}
	}
	if q.Empty() {
		return out, false
	}
	out.Q = append([]uint64(nil), q[:trimmedWords(q)]...)
	return out, true
}

// entrySet rebuilds a tableEntry's query set as a bitset.
func entrySet(e *tableEntry) bitset.Set {
	q := make(bitset.Set, e.qlen)
	ni := int(e.qlen)
	if ni > qInlineWords {
		ni = qInlineWords
	}
	copy(q[:ni], e.qw[:ni])
	if int(e.qlen) > qInlineWords {
		copy(q[qInlineWords:], e.qext)
	}
	return q
}

// sortEntries orders entries canonically so exports (and their encodings)
// are deterministic regardless of hash-table iteration order.
func sortEntries(es []SnapEntry) {
	sort.Slice(es, func(i, j int) bool {
		a, b := &es[i], &es[j]
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.Inst != b.Inst {
			return a.Inst < b.Inst
		}
		if a.Lineage != b.Lineage {
			return a.Lineage < b.Lineage
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if len(a.Q) != len(b.Q) {
			return len(a.Q) < len(b.Q)
		}
		for w := range a.Q {
			if a.Q[w] != b.Q[w] {
				return a.Q[w] < b.Q[w]
			}
		}
		return false
	})
}

// Export extracts every entry, remapped through rm; entries referencing
// dropped components are skipped. Entries come back canonically sorted.
func (t *Table) Export(rm *Remap) []SnapEntry {
	out := make([]SnapEntry, 0, t.n)
	for i := range t.entries {
		e := &t.entries[i]
		if !e.used {
			continue
		}
		se := SnapEntry{
			Phase: e.phase, Inst: e.inst, Op: e.op, Lineage: e.lineage,
			Value: e.value, Visits: e.visits,
		}
		q := entrySet(e)
		se.Q = q[:trimmedWords(q)]
		if mapped, ok := remapEntry(se, rm); ok {
			out = append(out, mapped)
		}
	}
	sortEntries(out)
	return out
}

// ImportEntry folds one remapped entry into the table by visit-weighted
// average with whatever the slot already holds (a fresh slot has zero
// visits, so the imported value lands unchanged up to the rounding of
// v·n/n).
func (t *Table) ImportEntry(se SnapEntry) {
	q := bitset.Set(se.Q)
	e := t.Slot(policy.Phase(se.Phase), query.InstID(se.Inst), se.Lineage, q, int(se.Op))
	mergeInto(&e.value, &e.visits, se.Value, se.Visits)
}

// mergeInto applies the visit-weighted average fold shared by table
// imports and Snapshot.Merge. Zero total visits keeps the incoming value
// (both sides unvisited ⇒ both are optimistic zeros anyway).
func mergeInto(value *float64, visits *uint32, v float64, n uint32) {
	tot := uint64(*visits) + uint64(n)
	if tot == 0 {
		*value = v
		return
	}
	*value = (*value*float64(*visits) + v*float64(n)) / float64(tot)
	if tot > math.MaxUint32 {
		tot = math.MaxUint32
	}
	*visits = uint32(tot)
}

// snapKey is the canonical comparison key of a SnapEntry (Merge, tests).
func snapKey(se *SnapEntry) string {
	buf := make([]byte, 0, 14+8*len(se.Q))
	buf = append(buf, se.Phase, se.Inst)
	for i := 0; i < 8; i++ {
		buf = append(buf, byte(se.Lineage>>(8*i)))
	}
	buf = append(buf, byte(se.Op), byte(se.Op>>8), byte(se.Op>>16), byte(se.Op>>24))
	for _, w := range se.Q {
		for i := 0; i < 8; i++ {
			buf = append(buf, byte(w>>(8*i)))
		}
	}
	return string(buf)
}

// Merge folds other into s by visit-weighted average per state, adding
// states s does not have. It is how a finished run's export updates the
// policy cache without discarding what earlier runs learned.
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	if other.NQueries > s.NQueries {
		s.NQueries = other.NQueries
	}
	idx := make(map[string]int, len(s.Entries))
	for i := range s.Entries {
		idx[snapKey(&s.Entries[i])] = i
	}
	for i := range other.Entries {
		oe := &other.Entries[i]
		if j, ok := idx[snapKey(oe)]; ok {
			e := &s.Entries[j]
			mergeInto(&e.Value, &e.Visits, oe.Value, oe.Visits)
			continue
		}
		cp := *oe
		cp.Q = append([]uint64(nil), oe.Q...)
		s.Entries = append(s.Entries, cp)
	}
	sortEntries(s.Entries)
}

// Clone returns a deep copy (the query-set words included), so a cached
// snapshot can be handed to a concurrent reader while Merge keeps
// mutating the original.
func (s *Snapshot) Clone() *Snapshot {
	if s == nil {
		return nil
	}
	cp := &Snapshot{NQueries: s.NQueries, Entries: make([]SnapEntry, len(s.Entries))}
	for i := range s.Entries {
		cp.Entries[i] = s.Entries[i]
		cp.Entries[i].Q = append([]uint64(nil), s.Entries[i].Q...)
	}
	return cp
}

// warmEpsilonFactor is the exploit-mode drop applied to ε when a policy
// warm-starts: prior runs already paid the exploration cost for this
// template, so the warm run mostly exploits while still correcting drift.
const warmEpsilonFactor = 0.25

// Export captures the policy's Q-table remapped through rm, canonically
// sorted. rm maps this run's live IDs to template-relative indices.
func (l *Learned) Export(rm *Remap) *Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return &Snapshot{NQueries: rm.NQ, Entries: l.table.Export(rm)}
}

// Import folds a snapshot into the policy's Q-table, remapping every
// entry through rm (template-relative indices -> this run's live IDs;
// entries referencing dropped components are skipped) and visit-weighted
// merging with existing state. If at least one entry lands, the policy is
// marked warm: ε drops by warmEpsilonFactor, once, no matter how many
// imports follow. Returns the number of imported entries.
func (l *Learned) Import(s *Snapshot, rm *Remap) int {
	if s == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for i := range s.Entries {
		se, ok := remapEntry(s.Entries[i], rm)
		if !ok {
			continue
		}
		l.table.ImportEntry(se)
		n++
	}
	if n > 0 {
		l.markWarmLocked()
	}
	return n
}

func (l *Learned) markWarmLocked() {
	if l.warm {
		return
	}
	l.warm = true
	l.cfg.Epsilon *= warmEpsilonFactor
}

// Warm reports whether the policy was seeded from a snapshot.
func (l *Learned) Warm() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.warm
}

// Epsilon returns the current exploration probability (reduced when warm).
func (l *Learned) Epsilon() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cfg.Epsilon
}

// RefTable mirrors of Export/Import, keeping the map oracle equivalent to
// the open-addressing table through snapshot round-trips.

// Export extracts and remaps every entry of the reference oracle.
func (r *RefTable) Export(rm *Remap) []SnapEntry {
	out := make([]SnapEntry, 0, len(r.m))
	for k, v := range r.m {
		se, ok := decodeRefKey(k)
		if !ok {
			continue
		}
		se.Value = v
		se.Visits = r.visits[k]
		if mapped, ok := remapEntry(se, rm); ok {
			out = append(out, mapped)
		}
	}
	sortEntries(out)
	return out
}

// ImportEntry folds one remapped entry into the oracle.
func (r *RefTable) ImportEntry(se SnapEntry) {
	k := key(policy.Phase(se.Phase), query.InstID(se.Inst), se.Lineage, bitset.Set(se.Q), int(se.Op))
	v, n := r.m[k], r.visits[k]
	mergeInto(&v, &n, se.Value, se.Visits)
	r.m[k] = v
	r.visits[k] = n
}

// decodeRefKey parses a RefTable key back into its components.
func decodeRefKey(k string) (SnapEntry, bool) {
	const prefix = 14
	if len(k) < prefix || (len(k)-prefix)%8 != 0 {
		return SnapEntry{}, false
	}
	se := SnapEntry{Phase: k[0], Inst: k[1]}
	for i := 0; i < 8; i++ {
		se.Lineage |= uint64(k[2+i]) << (8 * i)
	}
	se.Op = int32(uint32(k[10]) | uint32(k[11])<<8 | uint32(k[12])<<16 | uint32(k[13])<<24)
	qb := k[prefix:]
	se.Q = make([]uint64, len(qb)/8)
	for i := range se.Q {
		for b := 0; b < 8; b++ {
			se.Q[i] |= uint64(qb[i*8+b]) << (8 * b)
		}
	}
	return se, true
}

// Binary codec. Layout (all little-endian):
//
//	magic "RLQS" | version u32 | nqueries u32 | nentries u32
//	per entry: phase u8 | inst u8 | qlen u16 | op u32 | lineage u64 |
//	           value f64-bits u64 | visits u32 | qwords u64×qlen
//	trailer: FNV-1a 64 checksum of everything before it, u64
//
// Decode rejects wrong magic, unknown versions, truncation, trailing
// garbage and checksum mismatches, so a corrupted policy file degrades to
// a cold start instead of poisoning the policy.

const (
	snapMagic   = "RLQS"
	snapVersion = 1
)

var le = binary.LittleEndian

// Encode serializes the snapshot.
func (s *Snapshot) Encode() []byte {
	size := 16
	for i := range s.Entries {
		size += 28 + 8*len(s.Entries[i].Q)
	}
	buf := make([]byte, 0, size+8)
	buf = append(buf, snapMagic...)
	buf = le.AppendUint32(buf, snapVersion)
	buf = le.AppendUint32(buf, uint32(s.NQueries))
	buf = le.AppendUint32(buf, uint32(len(s.Entries)))
	for i := range s.Entries {
		e := &s.Entries[i]
		buf = append(buf, e.Phase, e.Inst)
		buf = le.AppendUint16(buf, uint16(len(e.Q)))
		buf = le.AppendUint32(buf, uint32(e.Op))
		buf = le.AppendUint64(buf, e.Lineage)
		buf = le.AppendUint64(buf, math.Float64bits(e.Value))
		buf = le.AppendUint32(buf, e.Visits)
		for _, w := range e.Q {
			buf = le.AppendUint64(buf, w)
		}
	}
	h := fnv.New64a()
	h.Write(buf)
	return le.AppendUint64(buf, h.Sum64())
}

// DecodeSnapshot parses and validates an encoded snapshot.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < 24 {
		return nil, fmt.Errorf("qlearn: snapshot truncated (%d bytes)", len(data))
	}
	body := data[:len(data)-8]
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != le.Uint64(data[len(data)-8:]) {
		return nil, fmt.Errorf("qlearn: snapshot checksum mismatch")
	}
	if string(body[:4]) != snapMagic {
		return nil, fmt.Errorf("qlearn: bad snapshot magic %q", body[:4])
	}
	if v := le.Uint32(body[4:]); v != snapVersion {
		return nil, fmt.Errorf("qlearn: unsupported snapshot version %d", v)
	}
	s := &Snapshot{NQueries: int(le.Uint32(body[8:]))}
	n := int(le.Uint32(body[12:]))
	off := 16
	s.Entries = make([]SnapEntry, 0, n)
	for i := 0; i < n; i++ {
		if off+28 > len(body) {
			return nil, fmt.Errorf("qlearn: snapshot entry %d truncated", i)
		}
		e := SnapEntry{Phase: body[off], Inst: body[off+1]}
		qlen := int(le.Uint16(body[off+2:]))
		e.Op = int32(le.Uint32(body[off+4:]))
		e.Lineage = le.Uint64(body[off+8:])
		e.Value = math.Float64frombits(le.Uint64(body[off+16:]))
		e.Visits = le.Uint32(body[off+24:])
		off += 28
		if off+8*qlen > len(body) {
			return nil, fmt.Errorf("qlearn: snapshot entry %d query set truncated", i)
		}
		e.Q = make([]uint64, qlen)
		for w := 0; w < qlen; w++ {
			e.Q[w] = le.Uint64(body[off:])
			off += 8
		}
		s.Entries = append(s.Entries, e)
	}
	if off != len(body) {
		return nil, fmt.Errorf("qlearn: %d trailing snapshot bytes", len(body)-off)
	}
	return s, nil
}
