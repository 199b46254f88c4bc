// Package stem implements State Modules (STeMs), the per-relation indexes
// that RouLette's history-independent multi-query n-ary symmetric hash join
// is built on (Raman et al., ICDE 2003; Sioulas & Ailamaki §3, §5.1).
//
// A STeM stores unified entries (index-vector of join keys, vID, version
// slot, query-set) in a chunked append-only slab and indexes each join-key
// column with a short list of immutable union tables (vec.go): an insert
// writes its entries and records their range, and the first probe or prune
// that finds recorded ranges builds a table over them. Insert-probe
// atomicity across concurrent episodes uses the paper's batch versioning:
// every inserted vector takes one STeM-local version slot that is later
// published to a global timestamp with a single atomic, and probes accept
// only entries whose published timestamp is strictly older than the
// probing episode's.
//
// Structural maintenance (adding an index, compacting dead entries away) is
// copy-on-write: the chunk list and the indexes live in an immutable
// stemState published through one atomic pointer, so probes never block on
// maintenance. Only inserts need the engine to fence the instance while a
// new state is built, because inserts write the current state's chunk tail
// and record their ranges on its indexes.
package stem

import (
	"slices"
	"sync"
	"sync/atomic"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/value"
)

const (
	chunkBits = 12
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1
)

// NullKey is the join key of a SQL NULL cell (value.NullCode in storage).
// NULL compares unequal to everything, itself included, so a NullKey probe
// matches nothing; build-side NULL entries may be inserted normally — union
// tables leave them out, so no probe or prune reaches them. Keeping the skip
// on the read side leaves the insert hot path untouched.
const NullKey = value.NullCode

// Versions is the session-wide version-slot table shared by all STeMs.
// Each episode allocates one slot, stamps its inserted entries with the
// slot index, and publishes the slot to a fresh global timestamp after the
// insert completes (§5.2 "Scalable versioning"). One counter hands out
// every timestamp, publications and probe timestamps (Now) alike.
//
// Slot protocol: slots are allocated densely (the engine uses the episode
// counter), a slot's entries are all inserted before the slot is published,
// and each slot is published at most once. The publication watermark — the
// count of contiguously published slots from 0 — depends on that contract:
// every slot below the watermark is published, and its timestamp was drawn
// from the counter before the watermark moved past it, so it is strictly
// older than any timestamp drawn after the watermark was read. Vector
// probes use this to skip the per-entry timestamp load for the (large,
// stable) prefix of old entries and pay it only in the small concurrent
// tail.
//
// A slot's cell holds one of three states:
//
//	 0   unpublished, no probe has rejected it
//	+ts  published at global timestamp ts (final)
//	-X   sealed: a probe at timestamp X found the slot unpublished and
//	     rejected its entries; Publish must take a timestamp newer than X
//
// The seal closes the draw-to-store race: Publish draws its timestamp and
// stores it as two separate atomics, so a probe that drew a newer probeTS
// in between would otherwise read 0 and skip entries whose timestamp is
// about to become strictly older than probeTS (and the publishing episode's
// own probes reject the probing episode's entries for being newer — the
// matching pair would be emitted by neither side). Sealing makes the
// rejection binding instead: the probe CASes the cell to -probeTS before
// rejecting, and Publish's CAS loop redraws after losing to a seal, so a
// sealed slot's eventual timestamp is provably newer than every rejecting
// probe's. Neither side ever waits. The counter and the watermark are
// padded apart so publishes and watermark reads do not false-share one
// cache line.
type Versions struct {
	global    atomic.Int64 // global timestamp counter; 0 is reserved
	_         [56]byte
	watermark atomic.Int64 // slots [0, watermark) are all published
	_         [56]byte

	mu    sync.Mutex
	slabs atomic.Pointer[[]*versionSlab]
}

type versionSlab struct {
	ts [chunkSize]atomic.Int64
}

// NewVersions creates an empty version table.
func NewVersions() *Versions {
	v := &Versions{}
	empty := []*versionSlab{}
	v.slabs.Store(&empty)
	return v
}

// Slot indexes a version slot.
type Slot int32

// ensure returns the slab holding slot n's cell, appending slabs up to it
// under the mutex when n lies past the last one.
func (v *Versions) ensure(n Slot) *versionSlab {
	si := int(n) >> chunkBits
	slabs := *v.slabs.Load()
	if si < len(slabs) {
		return slabs[si]
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	slabs = *v.slabs.Load()
	for si >= len(slabs) {
		next := make([]*versionSlab, len(slabs)+1)
		copy(next, slabs)
		next[len(slabs)] = &versionSlab{}
		v.slabs.Store(&next)
		slabs = next
	}
	return slabs[si]
}

// Publish maps slot n to a fresh global timestamp ts and returns it with
// wm, the publication watermark read before ts was drawn. Entries stamped
// with n become visible to probes with a newer timestamp. The pair is the
// one an episode probes with: every slot under wm drew its timestamp
// before the watermark moved past it, hence before wm was read and ts was
// drawn, so ProbeVec at (ts, wm) may skip those slots' timestamp loads.
// Publish also advances the watermark past every contiguously published
// slot.
//
// Publishing an already-published slot is a no-op returning the existing
// timestamp with wm 0, so defensive publishes on fault paths are safe; wm 0
// disables the caller's fast path, since that timestamp was drawn before
// this call read the watermark, not after.
// If probes sealed the slot (rejected it while unpublished), the CAS loop
// redraws until its timestamp beats every seal: the timestamp is drawn
// after the seal was loaded, and the seal's magnitude was drawn before the
// seal was stored, so a successful CAS guarantees ts > every overwritten
// seal. Each retry means a probe with a newer timestamp sealed in between,
// so the loop is bounded by the number of concurrent probes.
func (v *Versions) Publish(n Slot) (wm Slot, ts int64) {
	slab := v.ensure(n)
	cell := &slab.ts[int(n)&chunkMask]
	wm = Slot(v.watermark.Load())
	for {
		old := cell.Load()
		if old > 0 {
			return 0, old
		}
		ts = v.global.Add(1)
		if cell.CompareAndSwap(old, ts) {
			v.advanceWatermark()
			return wm, ts
		}
	}
}

// advanceWatermark pushes the watermark forward while the slot at the
// frontier is published. Concurrent publishers race on the CAS; a lost race
// just re-reads the frontier, so the loop is bounded by the number of slots
// published since the caller started.
func (v *Versions) advanceWatermark() {
	for {
		w := v.watermark.Load()
		if v.tryGet(Slot(w)) == 0 {
			return
		}
		v.watermark.CompareAndSwap(w, w+1)
	}
}

// Watermark returns the current publication watermark: every slot below it
// is published with a timestamp strictly older than any timestamp drawn
// *after* this call. Callers pairing a watermark with a probe timestamp
// must therefore read the watermark first.
func (v *Versions) Watermark() Slot { return Slot(v.watermark.Load()) }

// Now returns a probe timestamp newer than every published slot.
func (v *Versions) Now() int64 { return v.global.Add(1) }

// Frontier returns the current value of the global version counter without
// advancing it. It is a read-only causal stamp — suitable for tagging
// observability events with "how far had the clock moved when this
// happened" — and must never be used as a probe timestamp (those must be
// drawn with Now so they exceed every published slot).
func (v *Versions) Frontier() int64 { return v.global.Load() }

// tryGet resolves slot n to its global timestamp; 0 means unpublished
// (sealed slots are unpublished).
func (v *Versions) tryGet(n Slot) int64 {
	si := int(n) >> chunkBits
	slabs := *v.slabs.Load()
	if si >= len(slabs) {
		return 0
	}
	if ts := slabs[si].ts[int(n)&chunkMask].Load(); ts > 0 {
		return ts
	}
	return 0
}

// visibleAt reports whether slot n is visible to a probe at probeTS, i.e.
// published with a timestamp strictly older than probeTS. An unpublished
// slot is sealed at probeTS (one CAS) before visibleAt answers false: the
// seal forces the slot's eventual Publish onto a timestamp newer than
// probeTS, so a rejection can never lose to a publish that drew an older
// timestamp but had not stored it yet. probeTS must come from this table's
// counter (Publish or Now).
func (v *Versions) visibleAt(n Slot, probeTS int64) bool {
	si := int(n) >> chunkBits
	slabs := *v.slabs.Load()
	if si >= len(slabs) {
		// No slab means Publish(n) has not finished ensure(n), which
		// precedes its timestamp draw; with seq-cst atomics the slab-creating
		// store ordered after our slabs load, so the eventual timestamp is
		// ordered after probeTS and the entries are invisible.
		return false
	}
	cell := &slabs[si].ts[int(n)&chunkMask]
	for {
		ts := cell.Load()
		if ts > 0 {
			return ts < probeTS
		}
		if -ts >= probeTS {
			return false // a probe at or after probeTS already sealed it
		}
		if cell.CompareAndSwap(ts, -probeTS) {
			return false
		}
		// Lost to a concurrent publish or a newer seal; re-read and decide
		// again. Each retry strictly increases the cell's state, so the
		// loop terminates.
	}
}

// chunk holds a fixed-size block of unified STeM entries in columnar form.
// Query-set words are always accessed with sync/atomic: the GC sweeper
// clears retired bits in them concurrently with probes and inserts.
type chunk struct {
	vids  [chunkSize]int32
	slots [chunkSize]Slot
	keys  [][]int64 // one column per index
	qsets []uint64  // chunkSize * qw words; atomic access only
}

// stemState is the immutable structure of a STeM: the key columns, the
// entry chunk list and one index per key column. Structural maintenance
// (AddIndex, CompactLive) builds a fresh state and publishes it with one
// atomic pointer store; probes that loaded the old state stay correct for as
// long as they hold it. Within one state the chunk list grows (appends only)
// and the indexes take new tables, which is why inserts must be fenced
// across a state swap while probes need not be.
type stemState struct {
	keyCols []string
	colIdx  map[string]int
	chunks  atomic.Pointer[[]*chunk]
	index   []*index
}

// STeM is the state module for one relation instance.
type STeM struct {
	versions *Versions
	qw       int // query-set words per entry

	state atomic.Pointer[stemState]

	mu    sync.Mutex // chunk-list growth, recorded ranges, table builds, table sweeps, state swaps
	count atomic.Int64
	_     [56]byte // keep the hot insert counter off neighboring lines

	compactGen atomic.Uint64 // CompactLive rebuilds so far; entry positions are stable within one generation
}

// newState builds a state for the given key columns over a chunk list, with
// the given indexes (one per key column).
func newState(keyCols []string, chunks []*chunk, index []*index) *stemState {
	st := &stemState{
		keyCols: keyCols,
		colIdx:  make(map[string]int, len(keyCols)),
		index:   index,
	}
	for i, c := range keyCols {
		st.colIdx[c] = i
	}
	st.chunks.Store(&chunks)
	return st
}

// New creates a STeM indexing the given join-key columns with query sets
// over nQueries queries. Nothing is sized ahead of the entries, so
// capacityHint is unused; it stays because benchmark/trace.go passes it.
func New(versions *Versions, keyCols []string, nQueries, capacityHint int) *STeM {
	s := &STeM{
		versions: versions,
		qw:       bitset.WordsFor(nQueries),
	}
	if s.qw == 0 {
		s.qw = 1
	}
	index := make([]*index, len(keyCols))
	for i := range index {
		index[i] = newIndex(0)
	}
	s.state.Store(newState(keyCols, []*chunk{}, index))
	return s
}

// HasIndex reports whether col is indexed.
func (s *STeM) HasIndex(col string) bool {
	_, ok := s.state.Load().colIdx[col]
	return ok
}

// Len returns the number of inserted entries.
func (s *STeM) Len() int { return int(s.count.Load()) }

// chunkFor returns state st's chunk covering entry idx, growing st's chunk
// list if needed. Growth appends only — existing chunk pointers never move
// — so probes holding an older snapshot of the list stay valid.
func (s *STeM) chunkFor(st *stemState, idx int64) *chunk {
	ci := int(idx >> chunkBits)
	chunks := *st.chunks.Load()
	if ci < len(chunks) {
		return chunks[ci]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	chunks = *st.chunks.Load()
	for ci >= len(chunks) {
		c := newChunk(len(st.keyCols), s.qw)
		next := make([]*chunk, len(chunks)+1)
		copy(next, chunks)
		next[len(chunks)] = c
		st.chunks.Store(&next)
		chunks = next
	}
	return chunks[ci]
}

func newChunk(nkeys, qw int) *chunk {
	c := &chunk{
		keys:  make([][]int64, nkeys),
		qsets: make([]uint64, chunkSize*qw),
	}
	for i := 0; i < nkeys; i++ {
		c.keys[i] = make([]int64, chunkSize)
	}
	return c
}

// EstBytes estimates the STeM's resident memory: allocated entry chunks
// (vIDs, slots, key columns, query-set slab) plus every index's union
// tables. Observability only; the estimate ignores Go object headers.
func (s *STeM) EstBytes() int64 {
	st := s.state.Load()
	nChunks := int64(len(*st.chunks.Load()))
	perChunk := int64(chunkSize) * (4 + 4 + // vids, slots
		int64(len(st.keyCols))*8 + // keys
		int64(s.qw)*8) // query-set slab
	var index int64
	for _, ix := range st.index {
		for _, t := range *ix.tables.Load() {
			index += t.bytes()
		}
	}
	return nChunks*perChunk + index
}

// NumChunks returns the number of allocated entry chunks.
func (s *STeM) NumChunks() int { return len(*s.state.Load().chunks.Load()) }

// SweepChunk clears the retired queries' bits from every entry of chunk ci
// and returns how many of the chunk's entries now have an empty query set
// (cumulatively, not just newly emptied). It is the amortized unit of STeM
// garbage collection: the engine sweeps one chunk at a time between
// episodes, so no sweep ever runs on the execution hot path. The union
// tables hold copies of the words; SweepIndex clears those once every chunk
// is swept.
//
// SweepChunk runs concurrently with probes and inserts: every query-set
// word is cleared with a load/CAS pair, and a lost CAS is simply skipped —
// the only concurrent writer is an insert publishing a fresh entry, and a
// freshly inserted entry can never carry a retired query's bit (a query
// only retires once its in-flight episodes have drained, so no episode
// that could insert its bit is still running). Reserved-but-unwritten
// entries (an in-flight InsertVec past count.Add but before its stores)
// read as zero and are counted dead; that only skews the compaction
// heuristic, never correctness.
func (s *STeM) SweepChunk(ci int, retired bitset.Set) (dead int) {
	st := s.state.Load()
	chunks := *st.chunks.Load()
	if ci >= len(chunks) {
		return 0
	}
	c := chunks[ci]
	lo := ci << chunkBits
	hi := int(s.count.Load()) - lo
	if hi > chunkSize {
		hi = chunkSize
	}
	for off := 0; off < hi; off++ {
		qoff := off * s.qw
		empty := true
		for i := 0; i < s.qw; i++ {
			w := atomic.LoadUint64(&c.qsets[qoff+i])
			if i < len(retired) {
				masked := w &^ retired[i]
				if masked != w {
					// Ignore a lost race: the only concurrent writer is an
					// insert, whose value carries no retired bits.
					atomic.CompareAndSwapUint64(&c.qsets[qoff+i], w, masked)
					w = masked
				}
			}
			if w != 0 {
				empty = false
			}
		}
		if empty {
			dead++
		}
	}
	return dead
}

// SweepIndex clears the retired queries' bits from every union table of
// every index: each table holding one is replaced by a swept copy, so a
// table stays immutable and its readers need no atomics. The engine calls
// it once it has swept the STeM's chunks, in the same GC pass and so before
// the retired IDs are reused: a table built before a chunk was swept may
// still hold the bits, and one built after SweepIndex reads swept chunks
// only. It holds the mutex that builds and merges hold, so it never
// interleaves with one; a probe that loaded the old list finishes on it and
// may see a bit before its sweep, as it may in the chunks.
func (s *STeM) SweepIndex(retired bitset.Set) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ix := range s.state.Load().index {
		ts := slices.Clone(*ix.tables.Load())
		for i, t := range ts {
			ts[i] = t.swept(retired)
		}
		ix.tables.Store(&ts)
	}
}

// CompactLive rebuilds the STeM keeping only entries whose query set is
// non-empty, shrinking the entry slab to fit. Live entries keep their
// version slots (already published, so they stay visible to later probes).
// Returns the live entry count. The new state's indexes hold no table yet:
// the first probe or prune builds one over all of them.
//
// The rebuild is copy-on-write: a fresh state is built and published with
// one atomic store, so probes never block — a probe holding the old state
// sees every live entry there (compaction only drops entries whose query
// set is empty, which no probe output can use). Inserts must be fenced by
// the caller (the engine's per-instance insert fence): an insert landing in
// the old state after the live scan would be lost.
func (s *STeM) CompactLive() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state.Load()
	old := *st.chunks.Load()
	n := int(s.count.Load())

	live := 0
	for idx := 0; idx < n; idx++ {
		if !entryEmpty(old, idx, s.qw) {
			live++
		}
	}

	chunks := make([]*chunk, 0, (live+chunkSize-1)>>chunkBits)
	w := 0
	for idx := 0; idx < n; idx++ {
		if entryEmpty(old, idx, s.qw) {
			continue
		}
		oc := old[idx>>chunkBits]
		ooff := idx & chunkMask
		if w>>chunkBits >= len(chunks) {
			chunks = append(chunks, newChunk(len(st.keyCols), s.qw))
		}
		nc := chunks[w>>chunkBits]
		noff := w & chunkMask
		nc.vids[noff] = oc.vids[ooff]
		nc.slots[noff] = oc.slots[ooff]
		for i := 0; i < s.qw; i++ {
			atomic.StoreUint64(&nc.qsets[noff*s.qw+i], atomic.LoadUint64(&oc.qsets[ooff*s.qw+i]))
		}
		for i := range st.keyCols {
			nc.keys[i][noff] = oc.keys[i][ooff]
		}
		w++
	}
	index := make([]*index, len(st.keyCols))
	for i := range index {
		index[i] = newIndex(int64(w))
	}

	s.state.Store(newState(st.keyCols, chunks, index))
	s.count.Store(int64(w))
	s.compactGen.Add(1)
	return w
}

// CompactGen returns the number of CompactLive rebuilds this STeM has
// undergone. CompactLive is the only operation that moves entries to new
// positions (AddIndex shares the entry slabs in place), so a
// position-addressed scan — the engine's GC sweep cursor — is valid only
// within one generation: compare across pauses and restart from position
// zero when it moved.
func (s *STeM) CompactGen() uint64 { return s.compactGen.Load() }

func entryEmpty(chunks []*chunk, idx, qw int) bool {
	c := chunks[idx>>chunkBits]
	qoff := (idx & chunkMask) * qw
	for i := 0; i < qw; i++ {
		if atomic.LoadUint64(&c.qsets[qoff+i]) != 0 {
			return false
		}
	}
	return true
}

// AddIndex adds a new indexed join-key column, deriving each existing
// entry's key with keyOf(vid) (typically a base-table column lookup). It
// is how a live-admitted query can join an already-built STeM on a column
// no earlier query joined on. No-op if col is already indexed.
//
// Copy-on-write: the new state clones the chunks (sharing the existing key
// columns and query-set slabs, plus the new key column) and keeps the
// existing indexes' tables and recorded ranges; the new index holds no table
// until the first probe builds one over every entry. Probes on the old
// state never see the new column and never block; inserts must be fenced by
// the caller because entries inserted during the rebuild would miss the new
// column's backfill.
func (s *STeM) AddIndex(col string, keyOf func(vid int32) int64) {
	if s.HasIndex(col) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state.Load()
	keyCols := append(append([]string{}, st.keyCols...), col)

	old := *st.chunks.Load()
	chunks := make([]*chunk, len(old))
	for ci, oc := range old {
		nc := *oc
		nc.keys = append(append([][]int64{}, oc.keys...), make([]int64, chunkSize))
		chunks[ci] = &nc
	}
	n := s.count.Load()
	for idx := int64(0); idx < n; idx++ {
		c := chunks[idx>>chunkBits]
		off := idx & chunkMask
		c.keys[len(st.keyCols)][off] = keyOf(c.vids[off])
	}
	index := make([]*index, 0, len(keyCols))
	for _, ix := range st.index {
		index = append(index, ix.clone())
	}
	s.state.Store(newState(keyCols, chunks, append(index, newIndex(n))))
}

// Entry returns the vID and a copy of the query set of entry idx
// (test/diagnostic use).
func (s *STeM) Entry(idx int) (int32, bitset.Set) {
	c := (*s.state.Load().chunks.Load())[idx>>chunkBits]
	off := idx & chunkMask
	qoff := off * s.qw
	qs := make(bitset.Set, s.qw)
	for i := 0; i < s.qw; i++ {
		qs[i] = atomic.LoadUint64(&c.qsets[qoff+i])
	}
	return c.vids[off], qs
}
