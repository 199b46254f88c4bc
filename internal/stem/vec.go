package stem

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"github.com/roulette-db/roulette/internal/bitset"
)

// This file holds the STeM kernels and the index they read. Each kernel
// takes a whole episode vector, so synchronization is paid per vector rather
// than per tuple (§5.2 "Scalable versioning"):
//
//   - InsertVec reserves the whole vector's staged positions with a single
//     count.Add(n), bulk-writes the entry columns chunk segment by chunk
//     segment, and then records the finished range in the STeM's log under
//     its mutex, where it draws the range's stamp. It links nothing: entries
//     reach probes only through the union tables built over recorded
//     ranges.
//   - ProbeVecRange reads the probing vector where it lies (Probe): each
//     tuple's key through its vID and its words from the caller's slab,
//     masked to the probe's queries, and each key's entries from the
//     index's union tables, one slot per key and table. It keeps only the
//     entries that share a query with their tuple, writing the
//     intersections out. An index of one table whose entries were all
//     stamped before the probe's timestamp is read as it stands, without a
//     branch on the data for keys of one entry: every tuple reads its slot
//     and writes its match where the next one lands, and only a match that
//     keeps a bit advances. Any other index is read tuple by tuple, skipping
//     those with no bit, and each entry must be stamped before the probe's
//     timestamp.
//   - PruneVec is the symmetric-join-pruning kernel: it masks the probing
//     tuples' query sets in place over one word range and compacts the
//     survivors in the same pass, reading each key's union from the index
//     merged into one table.
//
// Memory-ordering argument: every entry write — vIDs, keys, query sets —
// happens before InsertVec records the range under the mutex, and a table
// is built over recorded ranges under the same mutex and published with one
// atomic store, so a table only ever holds fully written, stamped entries,
// and a staged position is written by its insert alone and read only after
// the record, so the chunks need no atomics.
//
// A table's words are read plainly: a table never changes once published,
// and a sweep replaces it with a swept copy (SweepIndex).

// VecMatch is one probe result: tuple In of the probing vector (key In of
// ProbeVec's key list) matched the entry with vID VID. Its query-set words
// sit beside it in the caller's word slab (ProbeVec, ProbeVecRange).
type VecMatch struct {
	In  int32
	VID int32
}

// Probe is a probing vector as ProbeVecRange reads it, in place. Tuple i,
// for i < len(VIDs), has the key Keys[VIDs[i]], Keys being the probing
// relation's join column, and its words for the probe's range [lo, hi) at
// Qsets[i*Stride+Off:][:hi-lo], ANDed with Mask (hi-lo words): the tuples'
// slab may be wider than the range. A nil Qsets probes every tuple
// unmasked, each match keeping its entry's own words.
type Probe struct {
	Keys   []int64
	VIDs   []int32
	Qsets  []uint64
	Stride int
	Off    int
	Mask   []uint64
}

// words returns tuple i's nw unmasked words.
func (p *Probe) words(i, nw int) []uint64 {
	return p.Qsets[i*p.Stride+p.Off:][:nw]
}

// iota32 holds 0, 1, 2, …: ProbeVec's keys are their own vIDs. It only
// grows, and a reader keeps whichever prefix it loaded.
var iota32 atomic.Pointer[[]int32]

// identity returns the vIDs 0..n-1.
func identity(n int) []int32 {
	if p := iota32.Load(); p != nil && len(*p) >= n {
		return (*p)[:n]
	}
	ids := make([]int32, max(n, 1024))
	for i := range ids {
		ids[i] = int32(i)
	}
	iota32.Store(&ids)
	return ids[:n]
}

// InsertScratch is unused: InsertVec needs no scratch. The type and
// InsertVec's parameter stay because benchmark/trace.go passes one.
type InsertScratch struct{}

// InsertVec adds len(vids) tuples in bulk and returns the stamp they share,
// or 0 for an empty vector, which it does not record. keyCols holds one key
// column per indexed column (index order), each of length len(vids); qsets
// is the tuples' query-set slab with qw words per tuple. keyCols may carry
// extra trailing columns beyond the STeM's index count, which are ignored,
// or lack the columns of indexes added since the caller's context view was
// built: such an index derives the key from the entry's vID (AddIndex). The
// tuples are visible to every probe at a timestamp newer than the stamp,
// and to no other: the inserting episode probes at the stamp itself, so it
// sees what was recorded before it and none of its own entries. A table
// keeps a stamp in 32 bits, beside the vID in its slot, so a session takes
// fewer than 2^31 ticks. The slot and the scratch are unused; they stay
// because benchmark/trace.go passes them.
func (s *STeM) InsertVec(vids []int32, keyCols [][]int64, qsets []uint64, qw int, _ Slot, _ *InsertScratch) int64 {
	if len(vids) == 0 {
		return 0
	}
	return s.fill(s.reserve(len(vids)), vids, keyCols, qsets, qw)
}

// reserve is InsertVec's first half: it claims n staged positions and
// returns the first.
func (s *STeM) reserve(n int) int64 {
	return s.count.Add(int64(n)) - int64(n)
}

// fill is InsertVec's second half: it writes the entries at the reserved
// positions [base, base+len(vids)), records their range with the number of
// key columns it wrote and returns the record's stamp.
func (s *STeM) fill(base int64, vids []int32, keyCols [][]int64, qsets []uint64, qw int) int64 {
	n, cols, sw := len(vids), len(keyCols), s.qw
	for i0 := 0; i0 < n; {
		idx := base + int64(i0)
		c := s.enter(idx >> chunkBits)
		off := int(idx & chunkMask)
		seg := min(chunkSize-off, n-i0)
		copy(c.vids[off:off+seg], vids[i0:i0+seg])
		if qw == sw {
			copy(c.qsets[off*sw:(off+seg)*sw], qsets[i0*qw:])
		} else { // a narrower slab is padded with zero words
			for j := 0; j < seg; j++ {
				row := c.qsets[(off+j)*sw:][:sw]
				clear(row[copy(row, qsets[(i0+j)*qw:][:min(qw, sw)]):])
			}
		}
		cols = min(cols, len(c.keys))
		for k, col := range c.keys[:cols] {
			copy(col[off:off+seg], keyCols[k][i0:i0+seg])
		}
		i0 += seg
	}
	s.mu.Lock()
	stamp := s.record(rec{lo: base, hi: base + int64(n), cols: cols})
	s.mu.Unlock()
	return stamp
}

// ProbeVec is ProbeVecRange unmasked over every word, for a key list. Its
// last parameter is unused; ProbeVec stays because benchmark/trace.go calls
// it.
func (s *STeM) ProbeVec(dst []VecMatch, qbuf []uint64, col string, keys []int64, probeTS int64, _ Slot) ([]VecMatch, []uint64) {
	dst, qbuf, _ = s.ProbeVecRange(dst, qbuf, col, Probe{Keys: keys, VIDs: identity(len(keys))}, probeTS, 0, s.qw)
	return dst, qbuf
}

// ProbeVecRange probes the tuples of p on column col over the query-set
// words [lo, hi) only, with lo < hi <= the STeM's width, fused with the
// intersection a join applies to each match: a tuple with no bit under
// p.Mask is not probed, an entry matches only if its key equals the
// tuple's, its stamp is older than probeTS and its words share a bit with
// its tuple's masked words, and the hi-lo words appended to qout per match
// are that intersection. An unmasked p (nil Qsets) keeps every match with
// the entry's own words. Matches come in tuple order, each tagged with its
// tuple's position, and the call also returns how many tuples it probed.
// The executor passes its plan node's word range, its input vector's slab
// and the node's queries as the mask, so qout is its output vector's
// query-set slab. probeTS is the prober's own stamp or a Versions.Now
// drawn before the call. A NullKey probe key matches nothing: SQL NULL
// never equals anything, itself included, and no table holds a NULL-keyed
// entry.
//
// The index's tables hold every entry the probe must see: such an entry
// was stamped before probeTS was drawn, so its InsertVec recorded its range
// before this call, which first builds a table over whatever is recorded
// (tables). A table whose every entry is older than probeTS (seen) is read
// as it stands; an index of one such table takes the table's own loops
// (probe), any other is read through every table (probeEach). The table's
// loops reserve room for one match per tuple in dst and qout, reusing the
// capacity they come with, and write every tuple's match where the next one
// lands, so the buffers may be written past the length they are returned
// with.
func (s *STeM) ProbeVecRange(dst []VecMatch, qout []uint64, col string, p Probe, probeTS int64, lo, hi int) ([]VecMatch, []uint64, int) {
	// The state and the table list are loaded once per call: a list
	// replaced mid-call leaves this probe on the old one, which holds every
	// entry the probe must see — such an entry's insert recorded its range
	// before its stamp, hence probeTS, was drawn, and the list is loaded
	// once every recorded range is built (tables).
	st := s.state.Load()
	ki, ok := st.colIdx[col]
	if !ok { // no table: the probe only counts its tuples
		return probeEach(nil, dst, qout, &p, probeTS, lo, hi)
	}
	ts := s.tables(st, ki, false)
	if len(ts) == 1 && ts[0].seen(probeTS) {
		return ts[0].probe(dst, qout, &p, lo, hi)
	}
	return probeEach(ts, dst, qout, &p, probeTS, lo, hi)
}

// keepWords writes the words of a match to o: the entry's words ew, ANDed
// with the tuple's words tw and the mask unless tw is nil (unmasked). It
// reports whether they keep a bit or the probe is unmasked. o may be ew.
func keepWords(o, ew, tw, mask []uint64) bool {
	if tw == nil {
		copy(o, ew)
		return true
	}
	var left uint64
	for w, x := range tw {
		y := x & mask[w] & ew[w]
		o[w] = y
		left |= y
	}
	return left != 0
}

// probeEach is ProbeVecRange over the table list ts entry by entry: each
// tuple looks its key up in every table and keeps the entries stamped
// before probeTS.
func probeEach(ts []*unionTable, dst []VecMatch, qout []uint64, p *Probe, probeTS int64, lo, hi int) ([]VecMatch, []uint64, int) {
	nw := hi - lo
	masked := p.Qsets != nil
	probed := 0
	for i, vid := range p.VIDs {
		var tw []uint64
		if masked {
			if tw = p.words(i, nw); !bitset.Intersects(tw, p.Mask) {
				continue
			}
		}
		probed++
		k := p.Keys[vid]
		for _, t := range ts {
			e := t.slot(k)
			if e.n == 0 {
				continue
			}
			for j := range e.count() {
				evid, stamp := t.entry(e, j)
				if int64(stamp) >= probeTS {
					continue
				}
				n := len(qout)
				for w := lo; w < hi; w++ {
					qout = append(qout, t.word(e, j, w))
				}
				if o := qout[n:]; tw != nil && !keepWords(o, o, tw, p.Mask) {
					qout = qout[:n]
					continue
				}
				dst = append(dst, VecMatch{In: int32(i), VID: evid})
			}
		}
	}
	return dst, qout, probed
}

// PruneVec is the symmetric-join-pruning kernel (§5.2): a probing tuple
// keeps an eligible query's bit only if some entry matching its key on col
// carries that bit too. The tuples are vids, with their words in
// the slab qsets (stride qw); tuple i's key is keys[vids[i]], keys being the
// probing relation's join column. With t its words and u the union of its
// matching entries' query sets, it sets, for each word w in [lo, hi),
//
//	t[w] &= u[w] | ^elig[w]
//
// and in the same pass compacts the tuples left with a bit in place: they
// move, in order and with all qw of their words, to the front of vids and
// qsets, and PruneVec returns how many there are. Tuples that came in empty
// leave too. Words outside [lo, hi) are neither read from the STeM nor
// masked; callers pass the span of elig's bits (bitset.Set.Span). Every
// tuple reads its key's union (one without an eligible bit comes out
// unchanged), and a NULL key (NullKey) matches nothing, so a NULL-keyed
// tuple loses all its eligible bits. acc is caller-owned scratch of at
// least hi-lo words.
//
// The prune reads the unions as they stand, with no timestamp: the caller
// prunes an eligible query only against a STeM whose every vector carrying
// it has been inserted and recorded (the engine's prunableLocked), and an
// entry recorded later belongs to a query admitted later, which carries no
// eligible bit. The prune merges the index's tables into one, built at once
// over whatever is recorded, and reads each key's union from it. A column
// the STeM does not index yet prunes nothing.
func (s *STeM) PruneVec(vids []int32, qsets []uint64, qw int, elig bitset.Set, lo, hi int, col string, keys []int64, acc []uint64) int {
	st := s.state.Load()
	ki, ok := st.colIdx[col]
	if !ok {
		return len(vids)
	}
	t := s.tables(st, ki, true)[0]
	if qw == 1 && hi-lo == 1 {
		e, n := elig[0], 0
		for i, vid := range vids {
			var u uint64 // a key no slot holds has the empty union
			if k := keys[vid]; !t.direct {
				u = t.slot(k).u
			} else if j := uint64(k - t.base); j < uint64(len(t.slots)) {
				u = t.slots[j].u
			}
			q := qsets[i] & (u | ^e)
			vids[n], qsets[n] = vid, q
			if q != 0 {
				n++
			}
		}
		return n
	}
	nw, n := hi-lo, 0
	elig, acc = elig[lo:hi], acc[:nw]
	if t.qw == 1 {
		// A one-word table keeps its union words in the slots, not in t.us.
		for i, vid := range vids {
			e := t.slot(keys[vid])
			for w := range acc {
				acc[w] = t.unionWord(e, lo+w)
			}
			vids[n] = vid
			if pruneRow(qsets[n*qw:][:qw], qsets[i*qw:][:qw], acc, elig, lo, hi) {
				n++
			}
		}
		return n
	}
	// The table's loop: pruneRow's body written out, as a call in the loop
	// makes the compiler keep the loop's operands on the stack.
	for i, vid := range vids {
		row, dst := qsets[i*qw:][:qw], qsets[n*qw:][:qw]
		u := t.us[int(t.slot(keys[vid]).u)+lo:][:nw]
		var has uint64
		for w, x := range elig {
			y := row[lo+w] & (u[w] | ^x)
			dst[lo+w] = y
			has |= y
		}
		// Only a tuple whose span emptied reads the words outside it, and
		// only a tuple that moves copies them.
		keep := has != 0 || !bitset.Set(row[:lo]).Empty() || !bitset.Set(row[hi:]).Empty()
		if n != i {
			vids[n] = vid
			copy(dst[:lo], row[:lo])
			copy(dst[hi:], row[hi:])
		}
		if keep {
			n++
		}
	}
	return n
}

// pruneRow masks the words row of a tuple over [lo, hi) by its key's union
// u where elig, the eligible words of the span, has bits, writing them to
// dst, the position the tuple moves to (row itself when it stays), with the
// words outside the span. It reports whether the tuple keeps a bit.
func pruneRow(dst, row, u, elig []uint64, lo, hi int) bool {
	var has uint64
	for w, x := range elig {
		y := row[lo+w] & (u[w] | ^x)
		dst[lo+w] = y
		has |= y
	}
	copy(dst[:lo], row[:lo])
	copy(dst[hi:], row[hi:])
	return has != 0 || !bitset.Set(dst[:lo]).Empty() || !bitset.Set(dst[hi:]).Empty()
}

// index is one key column's index: an immutable list of union tables,
// oldest and largest first, that together hold every entry of the first
// built records of the STeM's log. Readers load the list lock-free;
// building and sweeping take the STeM's mutex.
type index struct {
	tables atomic.Pointer[[]*unionTable]
	built  atomic.Int64 // records of the STeM's log the tables hold

	// keyOf derives an entry's key from its vID on an index AddIndex
	// added, for the entries whose inserter did not write the column.
	keyOf func(vid int32) int64
}

// noTables is the empty table list.
var noTables []*unionTable

// tables returns index ki's table list on state st once it holds every
// recorded entry: when records are pending it builds one table over them,
// merged with the tail tables a Bentley–Saxe size tier gives it (catchUp).
// With all it merges the whole list into one table, so the list it returns
// has exactly one. Builds hold the STeM's mutex, so they neither race each
// other nor a sweep. A list whose index has built every record is read
// without the mutex: a build publishes its tables before its record count.
func (s *STeM) tables(st *stemState, ki int, all bool) []*unionTable {
	ix := st.index[ki]
	if ix.built.Load() == s.logged.Load() {
		if ts := *ix.tables.Load(); !all || len(ts) == 1 {
			return ts
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.catchUp(st, ki, all, false)
}

// catchUp is tables under the STeM's mutex. With drop (and all) it merges
// the whole list even when it is one table, and leaves out the entries
// whose words are all zero, leaving no table when none is left
// (compaction).
//
// Each table counts the deltas (builds over pending records) it holds. A
// new delta absorbs every tail table holding no more deltas than it holds so
// far, so the counts fall strictly along the list, as a binary counter's
// bits do, and a list holds at most ⌈log2 deltas⌉ + 1 tables; every entry is
// read by O(log deltas) builds.
func (s *STeM) catchUp(st *stemState, ki int, all, drop bool) []*unionTable {
	ix := st.index[ki]
	ts := *ix.tables.Load()
	pend := s.log[ix.built.Load()-s.logBase:]
	if len(pend) == 0 && !drop && (!all || len(ts) == 1) {
		return ts // built while this call waited
	}
	deltas, j := 0, len(ts)
	if len(pend) > 0 {
		deltas = 1
	}
	for j > 0 && (all || ts[j-1].deltas <= deltas) {
		j--
		deltas += ts[j].deltas
	}
	next := ts[:j:j]
	if t := s.build(ix, ki, pend, ts[j:], deltas, false, drop); !drop || t.entries > 0 {
		next = append(next, t)
	}
	ix.tables.Store(&next)
	ix.built.Store(s.logged.Load())
	s.trim()
	return next
}

// unionTable is an immutable snapshot of some entries of one index,
// answering a prune or a probe with one slot read per key: a map from each
// distinct non-NULL key to the OR of its entries' query sets (its union)
// and to the entries themselves. A key with one entry keeps its vID and
// stamp in its slot, and its words are its union; a key with more keeps its
// entries' vIDs, stamps and words (qw per entry) contiguous in vids, stamps
// and words. The NULL-keyed entries, which no probe reaches,
// follow them there (the last nulls), so that a merge or an AddIndex reads
// every entry back from the table. On a one-word table the union word sits
// in the slot; on a wider one the slot locates the key's qw union words in
// us, whose first qw words stay zero for the empty slot. An empty slot (no
// entries) therefore reads the empty union.
//
// The table has one of two layouts, picked per build. A direct table has
// one slot per key of its keys' range, slot key − base; a key outside the
// range, NULL included, reads the empty slot past the last one, which every
// table's slots have room for (relayout). A hashed
// table is open-addressed, with qat.HashTable's one-multiply hash, and at
// most half full; a NULL key, which no slot holds, stops at the first empty
// slot.
//
// A table holds zero-word entries too (a probe returns them), and maxTS is
// the newest of its entries' stamps. A table never changes once published:
// a sweep replaces it with a swept copy (SweepIndex).
type unionTable struct {
	slots   []unionSlot
	direct  bool
	base    int64 // direct: the key of slots[0]
	shift   uint  // hashed: 64 − log2(len(slots))
	qw      int
	us      []uint64
	vids    []int32
	stamps  []int32
	words   []uint64
	nulls   int // NULL-keyed entries, at the end of vids, stamps and words
	maxTS   int64
	deltas  int   // builds over pending records merged into the table
	keys    int   // distinct keys
	entries int   // entries, NULL-keyed ones included
	lo, hi  int64 // the keys' range
}

// unionSlot is one key of a unionTable, 24 bytes. u is the key's union
// word on a one-word table, else the offset of its union words in the
// table's us. n is 0 for an empty slot, the entry count n > 1 for a key of
// several entries, whose vid says where they start in the table's vids and
// stamps (and, times qw, in its words), and −1 − the stamp of a key's sole
// entry (n < 0), whose vID is vid: the stamp fits beside the vID without
// growing every slot by a third.
type unionSlot struct {
	key int64
	u   uint64
	vid int32
	n   int32
}

// count returns how many entries e holds.
func (e *unionSlot) count() int {
	if e.n < 0 {
		return 1
	}
	return int(e.n)
}

// seen reports whether every entry of t is visible to a probe at probeTS.
func (t *unionTable) seen(probeTS int64) bool { return t.maxTS < probeTS }

// directSpan bounds a direct table: a build takes the direct layout when
// its keys' range is at most directSpan times the slots a hashed table of
// the same keys has. Dense keys (a dimension's 0..n-1, of which a selective
// query's STeM holds a fraction) then cost one bounds check per lookup
// instead of a probe sequence, at a few times the slots.
const directSpan = 8

// hashedSlots is the slot count of a hashed table for keys keys: the power
// of two that keeps it at most half full.
func hashedSlots(keys int) int {
	n := 1
	for n < 2*keys {
		n <<= 1
	}
	return n
}

// visitor receives one entry as a build reads it: its key, vID, stamp and
// query-set words, valid during the call only.
type visitor func(k int64, vid int32, stamp int32, ws []uint64)

// eachStaged calls f for every entry of record r, read from the staging
// chunks, with its key on index ki of ix: the column the inserter wrote or,
// when it wrote fewer, ix.keyOf of its vID. The STeM's mutex must be held.
func (s *STeM) eachStaged(r rec, ki int, ix *index, f visitor) {
	g, qw := s.stage.Load(), s.qw
	for idx := r.lo; idx < r.hi; {
		c := g.at(idx >> chunkBits)
		off := int(idx & chunkMask)
		end := off + int(min(r.hi-idx, int64(chunkSize-off)))
		for o := off; o < end; o++ {
			var k int64
			if ki < r.cols {
				k = c.keys[ki][o]
			} else {
				k = ix.keyOf(c.vids[o])
			}
			f(k, c.vids[o], r.stamp, c.qsets[o*qw:][:qw])
		}
		idx += int64(end - off)
	}
}

// each calls f for every entry of t: each key's, oldest first, and then the
// NULL-keyed ones.
func (t *unionTable) each(f visitor) {
	var one [1]uint64
	for i := range t.slots {
		switch e := &t.slots[i]; {
		case e.n < 0:
			ws := one[:]
			if t.qw == 1 {
				one[0] = e.u
			} else {
				ws = t.us[e.u:][:t.qw]
			}
			f(e.key, e.vid, -1-e.n, ws)
		case e.n > 1:
			for j := int(e.vid+e.n) - 1; j >= int(e.vid); j-- {
				f(e.key, t.vids[j], t.stamps[j], t.words[j*t.qw:][:t.qw])
			}
		}
	}
	for j := len(t.vids) - t.nulls; j < len(t.vids); j++ {
		f(NullKey, t.vids[j], t.stamps[j], t.words[j*t.qw:][:t.qw])
	}
}

// dead counts t's entries whose words are all zero.
func (t *unionTable) dead() (n int) {
	t.each(func(_ int64, _ int32, _ int32, ws []uint64) {
		if bitset.Set(ws).Empty() {
			n++
		}
	})
	return n
}

// build returns a table over the entries of the tables merged and of the
// records pend, holding deltas deltas, with their keys on index ki of ix.
// With rekey a merged entry's key is ix.keyOf of its vID (AddIndex), and
// with drop an entry whose words are all zero is left out (compaction). The
// merged tables' keys (or, rekeyed, their entries) plus the records'
// entries bound its keys (room), and a pass over the records' keys and the
// merged tables' ranges gives its keys' range. The table starts out direct when that range is small enough for
// room keys (directSpan), else hashed for room keys; one pass indexes every
// entry, and the table then moves to the layout and size its exact key
// count calls for, when that differs. A second pass lays out the entries of
// keys with more than one and the NULL-keyed ones. The STeM's mutex must be
// held.
func (s *STeM) build(ix *index, ki int, pend []rec, merged []*unionTable, deltas int, rekey, drop bool) *unionTable {
	qw := s.qw
	t := &unionTable{qw: qw, deltas: deltas}
	rekeyed := func(f visitor) visitor {
		if !rekey {
			return f
		}
		return func(_ int64, vid int32, stamp int32, ws []uint64) { f(ix.keyOf(vid), vid, stamp, ws) }
	}
	// each visits the entries the table takes: the merged tables', then the
	// records'.
	each := func(f visitor) {
		if drop {
			keep := f
			f = func(k int64, vid int32, stamp int32, ws []uint64) {
				if !bitset.Set(ws).Empty() {
					keep(k, vid, stamp, ws)
				}
			}
		}
		for _, m := range merged {
			m.each(rekeyed(f))
		}
		for _, r := range pend {
			s.eachStaged(r, ki, ix, f)
		}
	}
	room, lo, hi := 0, int64(math.MaxInt64), int64(math.MinInt64)
	scan := func(k int64, _ int32, _ int32, _ []uint64) {
		room++
		if k != NullKey {
			lo, hi = min(lo, k), max(hi, k)
		}
	}
	for _, m := range merged {
		t.maxTS = max(t.maxTS, m.maxTS)
		if rekey {
			m.each(rekeyed(scan))
		} else {
			room += m.keys
			lo, hi = min(lo, m.lo), max(hi, m.hi)
		}
	}
	for _, r := range pend {
		t.maxTS = max(t.maxTS, int64(r.stamp))
		s.eachStaged(r, ki, ix, scan)
	}
	t.lo, t.hi = lo, hi
	// The range is hi − lo + 1 keys. hi − lo is computed in uint64, where
	// it is exact for any two int64s (lo <= hi), so keys spread across the
	// int64 range cannot wrap it into a small one. No key at all leaves a
	// direct table of no slots.
	span := uint64(hi) - uint64(lo)
	switch {
	case lo > hi:
		t.relayout(0, true, 0)
	case span < directSpan*uint64(hashedSlots(room)):
		t.relayout(int(span)+1, true, lo)
	default:
		t.relayout(hashedSlots(room), false, 0)
	}
	if qw > 1 {
		t.us = make([]uint64, qw, (room+1)*qw)
	}
	multi, nulls := 0, 0
	each(func(k int64, vid int32, stamp int32, ws []uint64) {
		t.entries++
		if k == NullKey {
			nulls++ // unreachable by any probe, contributes to no union
			return
		}
		e := t.slot(k)
		switch {
		case e.n == 0:
			e.key, e.vid, e.n = k, vid, -1-stamp
			if qw > 1 {
				e.u = uint64(len(t.us))
				t.us = append(t.us, make([]uint64, qw)...)
			}
			t.keys++
		case e.n < 0:
			e.n = 2
			multi += 2
		default:
			e.n++
			multi++
		}
		if qw == 1 {
			e.u |= ws[0]
		} else {
			u := t.us[int(e.u):][:qw]
			for w := range u {
				u[w] |= ws[w]
			}
		}
	})
	if size := hashedSlots(t.keys); t.direct && lo <= hi && span >= directSpan*uint64(size) || !t.direct && size < len(t.slots) {
		t.relayout(size, false, 0)
	}
	if multi+nulls > 0 {
		t.fillMulti(each, multi, nulls)
	}
	return t
}

// fillMulti lays out the entries of every key with more than one entry,
// multi of them in all, contiguously in t.vids, t.stamps and t.words, and
// the nulls NULL-keyed entries after them, reading the entries with each:
// each key's run is reserved by its end, filled backwards (so newest
// first) and left pointing at its start.
func (t *unionTable) fillMulti(each func(visitor), multi, nulls int) {
	qw, n := t.qw, multi+nulls
	t.vids, t.stamps, t.words, t.nulls = make([]int32, n), make([]int32, n), make([]uint64, n*qw), nulls
	end := int32(0)
	for i := range t.slots {
		if e := &t.slots[i]; e.n > 1 {
			end += e.n
			e.vid = end
		}
	}
	null := multi
	each(func(k int64, vid int32, stamp int32, ws []uint64) {
		r := null
		if k == NullKey {
			null++
		} else if e := t.slot(k); e.n > 1 {
			e.vid--
			r = int(e.vid)
		} else {
			return
		}
		t.vids[r], t.stamps[r] = vid, stamp
		copy(t.words[r*qw:][:qw], ws)
	})
}

// relayout moves t's keys into n fresh slots, direct from base or hashed
// (n a power of two), with room for the empty slot a direct table's keys
// outside its range read; the union words and side arrays the slots point
// at stay where they are.
func (t *unionTable) relayout(n int, direct bool, base int64) {
	old := t.slots
	t.slots, t.direct, t.base = make([]unionSlot, n, n+1), direct, base
	if !direct {
		t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	}
	for i := range old {
		if e := &old[i]; e.n != 0 {
			*t.slot(e.key) = *e
		}
	}
}

// slot returns key's slot: the one holding it, or an empty one (n == 0):
// on a direct table the key's own or, outside the range, the one past the
// last; on a hashed one where its probe sequence ends. The direct index is
// exact in wrapping arithmetic: key − base maps the range onto
// [0, len(slots)) and every other key outside it, where the clamp sends it
// to the empty slot.
func (t *unionTable) slot(key int64) *unionSlot {
	if t.direct {
		return &t.slots[:len(t.slots)+1][min(uint64(key-t.base), uint64(len(t.slots)))]
	}
	mask := uint64(len(t.slots) - 1)
	for i := (uint64(key) * 0x9E3779B97F4A7C15) >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.key == key || s.n == 0 {
			return s
		}
	}
}

// entry returns the vID and stamp of entry j of e (its sole entry when
// e.n < 0).
func (t *unionTable) entry(e *unionSlot, j int) (int32, int32) {
	if e.n < 0 {
		return e.vid, -1 - e.n
	}
	r := int(e.vid) + j
	return t.vids[r], t.stamps[r]
}

// word returns word w of entry j of e: a sole entry's words are its key's
// union.
func (t *unionTable) word(e *unionSlot, j, w int) uint64 {
	if e.n > 1 {
		return t.words[(int(e.vid)+j)*t.qw+w]
	}
	return t.unionWord(e, w)
}

// unionWord returns word w of e's union.
func (t *unionTable) unionWord(e *unionSlot, w int) uint64 {
	if t.qw == 1 {
		return e.u
	}
	return t.us[int(e.u)+w]
}

// swept returns t with the retired bits cleared from its union and entry
// words: t itself when none of its words holds one, else a copy with fresh
// word arrays (and fresh slots, for a one-word table's unions).
func (t *unionTable) swept(retired bitset.Set) *unionTable {
	c, changed := *t, false
	clean := func(ws []uint64) []uint64 {
		for i, w := range ws {
			if r := i % t.qw; r < len(retired) && w&retired[r] != 0 {
				ws, changed = slices.Clone(ws), true
				for i := range ws {
					if r := i % t.qw; r < len(retired) {
						ws[i] &^= retired[r]
					}
				}
				return ws
			}
		}
		return ws
	}
	c.us, c.words = clean(t.us), clean(t.words)
	if t.qw == 1 && len(retired) > 0 && slices.ContainsFunc(t.slots, func(e unionSlot) bool { return e.u&retired[0] != 0 }) {
		c.slots, changed = append(make([]unionSlot, 0, len(t.slots)+1), t.slots...), true
		for i := range c.slots {
			c.slots[i].u &^= retired[0]
		}
	}
	if !changed {
		return t
	}
	return &c
}

// probe is ProbeVecRange served from t alone, every entry of which the
// probe sees, in the shape of PruneVec's table loops: it reserves room for
// one match per tuple and runs the loop of its range, probeWord for one
// word and probeWide for more. Every tuple reads its key's slot and writes
// its match where the next one lands, and only a match that keeps a bit
// advances. A key of several entries writes each entry's match so; when
// they do not fit in the room left, the loop stops and the room doubles.
// A one-word range has a loop of its own, as a one-word prune has in
// PruneVec: in the kernel benchmarks a general loop reading the one-word
// union through the union words spent about 1.5 ns per key more.
func (t *unionTable) probe(dst []VecMatch, qout []uint64, p *Probe, lo, hi int) ([]VecMatch, []uint64, int) {
	nw := hi - lo
	n, q, probed := len(dst), len(qout), 0
	for i, room := 0, len(p.VIDs); ; room *= 2 {
		dst, qout = grown(dst[:n], room), grown(qout[:q], room*nw)
		r := min(len(dst)-n, (len(qout)-q)/nw)
		var k, pr int
		if nw == 1 {
			k, pr, i = t.probeWord(dst[n:][:r], qout[q:][:r], p, i, lo)
		} else {
			k, pr, i = t.probeWide(dst[n:][:r], qout[q:][:r*nw], p, i, lo, hi)
		}
		n, q, probed = n+k, q+k*nw, probed+pr
		if i == len(p.VIDs) {
			return dst[:n], qout[:q], probed
		}
	}
}

// ones is the words of an unmasked probe's tuples in probeWord: every bit.
var ones = [1]uint64{^uint64(0)}

// probeWord is probe's loop over the one word w, the range of every
// one-word table, from tuple i on; a wider table's union word is read from
// its union words. Tuple i's key is looked up inline on a direct table,
// clamped to the empty slot past the range, and its match is written to
// ms and qs at the count n, which advances when the tuple's masked word
// shares a bit with its key's union or, unmasked, when the slot holds an
// entry. probed counts the tuples with a bit under the mask. A key of
// several entries writes one match per entry, which advances when the
// entry shares a bit with the tuple, or unmasked; the loop stops at one
// whose matches would leave less room than one per tuple after it, and
// returns n, probed and where it stopped.
func (t *unionTable) probeWord(ms []VecMatch, qs []uint64, p *Probe, i, w int) (n, probed, stop int) {
	keys, vids := p.Keys, p.VIDs
	qsets, stride, off, mask, sole := p.Qsets, p.Stride, p.Off, ^uint64(0), ^uint64(0)
	if qsets == nil {
		qsets, stride, off = ones[:], 0, 0
	} else { // an entry is kept only for a bit it shares
		mask, sole = p.Mask[0], 0
	}
	slots, end := t.slots[:len(t.slots)+1], uint64(len(t.slots))
	for ; i < len(vids); i++ {
		m := mask & qsets[i*stride+off]
		var e *unionSlot
		if k := keys[vids[i]]; t.direct {
			e = &slots[min(uint64(k-t.base), end)]
		} else {
			e = t.slot(k)
		}
		if e.n > 1 && n+int(e.n)+len(vids)-i-1 > len(ms) {
			break
		}
		if m != 0 {
			probed++
		}
		if e.n > 1 {
			for j := int(e.vid); j < int(e.vid+e.n); j++ {
				x := m & t.words[j*t.qw+w]
				ms[n], qs[n] = VecMatch{In: int32(i), VID: t.vids[j]}, x
				if x|sole != 0 {
					n++
				}
			}
			continue
		}
		u := e.u
		if t.qw > 1 {
			u = t.us[int(u)+w]
		}
		x := m & u
		ms[n], qs[n] = VecMatch{In: int32(i), VID: e.vid}, x
		if x|uint64(uint32(e.n))&sole != 0 {
			n++
		}
	}
	return n, probed, i
}

// probeWide is probeWord over the words [lo, hi) of a wider range: a
// match's words, the tuple's masked words ANDed with its key's union words
// or its entry's, are written to qs[n*(hi-lo):], and the count advances
// when one keeps a bit.
func (t *unionTable) probeWide(ms []VecMatch, qs []uint64, p *Probe, i, lo, hi int) (n, probed, stop int) {
	nw := hi - lo
	masked, mask := p.Qsets != nil, p.Mask
	slots, end := t.slots[:len(t.slots)+1], uint64(len(t.slots))
	for ; i < len(p.VIDs); i++ {
		var e *unionSlot
		if k := p.Keys[p.VIDs[i]]; t.direct {
			e = &slots[min(uint64(k-t.base), end)]
		} else {
			e = t.slot(k)
		}
		var tw []uint64
		if masked {
			tw = p.Qsets[i*p.Stride+p.Off:][:nw]
		}
		if e.n > 1 {
			if n+int(e.n)+len(p.VIDs)-i-1 > len(ms) {
				break
			}
			if !masked || bitset.Intersects(tw, mask) {
				probed++
			}
			for j := int(e.vid); j < int(e.vid+e.n); j++ {
				ms[n] = VecMatch{In: int32(i), VID: t.vids[j]}
				if keepWords(qs[n*nw:][:nw], t.words[j*t.qw+lo:][:nw], tw, mask) {
					n++
				}
			}
			continue
		}
		ms[n] = VecMatch{In: int32(i), VID: e.vid}
		any, left := uint64(1), uint64(uint32(e.n))
		if o, u := qs[n*nw:][:nw], t.us[int(e.u)+lo:][:nw]; masked {
			any, left = 0, 0
			for w, x := range tw {
				x &= mask[w]
				any |= x
				x &= u[w]
				o[w] = x
				left |= x
			}
		} else {
			copy(o, u)
		}
		if any != 0 {
			probed++
		}
		if left != 0 {
			n++
		}
	}
	return n, probed, i
}

// grown returns s extended to its capacity, which it first grows to hold
// at least k elements more.
func grown[T any](s []T, k int) []T {
	s = slices.Grow(s, k)
	return s[:cap(s)]
}

// bytes is the table's resident size for EstBytes: 24-byte slots, the
// union words of a wider table, and a vID, a stamp and qw words per
// side-array entry.
func (t *unionTable) bytes() int64 {
	return int64(len(t.slots))*24 + int64(len(t.us)+len(t.words))*8 + int64(len(t.vids)+len(t.stamps))*4
}
