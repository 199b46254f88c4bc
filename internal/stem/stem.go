// Package stem implements State Modules (STeMs), the per-relation indexes
// that RouLette's history-independent multi-query n-ary symmetric hash join
// is built on (Raman et al., ICDE 2003; Sioulas & Ailamaki §3, §5.1).
//
// A STeM stores unified entries (index-vector of join keys, vID, version
// slot, query-set) in a chunked append-only slab and builds one lock-free
// hash index per join-key column. Inserts and probes are wait-free on the
// hot path; insert-probe atomicity across concurrent episodes uses the
// paper's batch versioning: every inserted vector takes one STeM-local
// version slot that is later published to a global timestamp with a single
// atomic, and probes accept only entries whose published timestamp is
// strictly older than the probing episode's.
//
// Structural maintenance (adding an index, growing buckets, compacting dead
// entries away) is copy-on-write: the index structure lives in an immutable
// stemState published through one atomic pointer, so probes never block on
// maintenance. Only inserts need the engine to fence the instance while a
// new state is built, because inserts mutate the current state's chunk tail
// and bucket heads.
package stem

import (
	"math/bits"
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
// NULL compares unequal to everything, itself included, so every probe path
// treats a NullKey probe as matching nothing; build-side NULL entries may
// be inserted normally — they are unreachable because no probe for their
// key ever walks a chain, and union tables leave them out. Keeping the skip
// on the probe side leaves the insert hot path untouched.
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
	next  [][]int32 // one chain per index; 0 = end, else entryIdx+1
	qsets []uint64  // chunkSize * qw words; atomic access only
}

// stemState is the immutable index structure of a STeM: the key columns,
// their bucket arrays, and the entry chunk list. Structural maintenance
// (AddIndex, EnsureBuckets, CompactLive) builds a fresh state and publishes
// it with one atomic pointer store; the old state is frozen — its buckets
// and per-entry chain links are never written again — so probes that loaded
// it stay correct for as long as they hold it. Within one state the chunk
// list grows (appends only) and buckets accept new entries, which is why
// inserts must be fenced across a state swap while probes need not be.
//
// committed counts the entries whose every field and chain link is
// written: InsertVec adds its batch size after its splices, while the
// STeM's count reserves the range before the writes. When the two are
// equal no insert is in flight and entries [0, committed) may be read
// without following a chain. unions caches one union table per index,
// with what its builds need (see unionCache); a state swap drops them with
// the state.
type stemState struct {
	keyCols   []string
	colIdx    map[string]int
	buckets   [][]atomic.Int32 // per index; value 0 = empty, else entryIdx+1
	shift     []uint
	chunks    atomic.Pointer[[]*chunk]
	committed atomic.Int64
	unions    []unionCache
}

// STeM is the state module for one relation instance.
type STeM struct {
	versions *Versions
	qw       int // query-set words per entry

	state atomic.Pointer[stemState]

	mu    sync.Mutex
	count atomic.Int64
	_     [56]byte // keep the hot insert counter off neighboring lines

	compactGen atomic.Uint64 // CompactLive rebuilds so far; entry positions are stable within one generation
	sweepGen   atomic.Uint64 // SweepChunk calls that cleared a bit; a union table is stale once it moves
	unionScans atomic.Int64  // entries read by union-table builds, failed ones included (read by tests)
	buildRent  int64         // query-set words a probe walks per word a union-table build reads before it builds (union); tests set 0
}

// newState builds a state for the given key columns with nb (still empty)
// buckets per index over a chunk list whose first committed entries are
// written.
func newState(keyCols []string, nb int, chunks []*chunk, committed int64) *stemState {
	st := &stemState{
		keyCols: keyCols,
		colIdx:  make(map[string]int, len(keyCols)),
		buckets: make([][]atomic.Int32, len(keyCols)),
		shift:   make([]uint, len(keyCols)),
		unions:  make([]unionCache, len(keyCols)),
	}
	st.committed.Store(committed)
	for i, c := range keyCols {
		st.colIdx[c] = i
		st.buckets[i] = make([]atomic.Int32, nb)
		st.shift[i] = uint(64 - bits.TrailingZeros(uint(nb)))
	}
	st.chunks.Store(&chunks)
	return st
}

func bucketsFor(hint int) int {
	nb := 1
	for nb < hint*2 {
		nb <<= 1
	}
	if nb < 64 {
		nb = 64
	}
	return nb
}

// New creates a STeM indexing the given join-key columns, sized for about
// capacityHint entries and query sets over nQueries queries.
func New(versions *Versions, keyCols []string, nQueries, capacityHint int) *STeM {
	s := &STeM{
		versions:  versions,
		qw:        bitset.WordsFor(nQueries),
		buildRent: 2,
	}
	if s.qw == 0 {
		s.qw = 1
	}
	s.state.Store(newState(keyCols, bucketsFor(capacityHint), []*chunk{}, 0))
	return s
}

// HasIndex reports whether col is indexed.
func (s *STeM) HasIndex(col string) bool {
	_, ok := s.state.Load().colIdx[col]
	return ok
}

// Len returns the number of inserted entries.
func (s *STeM) Len() int { return int(s.count.Load()) }

func hash64(x int64) uint64 {
	// Fibonacci multiplicative hashing with an avalanche step.
	h := uint64(x) * 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

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
		next:  make([][]int32, nkeys),
		qsets: make([]uint64, chunkSize*qw),
	}
	for i := 0; i < nkeys; i++ {
		c.keys[i] = make([]int64, chunkSize)
		c.next[i] = make([]int32, chunkSize)
	}
	return c
}

// EstBytes estimates the STeM's resident memory: allocated entry chunks
// (vIDs, slots, key columns, hash chains, query-set slab) plus the bucket
// arrays and the cached union tables (slots, a wide table's union words,
// side arrays).
// Observability only; the estimate ignores Go object headers.
func (s *STeM) EstBytes() int64 {
	st := s.state.Load()
	nChunks := int64(len(*st.chunks.Load()))
	perChunk := int64(chunkSize) * (4 + 4 + // vids, slots
		int64(len(st.keyCols))*(8+4) + // keys, next chains
		int64(s.qw)*8) // query-set slab
	var index int64
	for _, b := range st.buckets {
		index += int64(len(b)) * 4
	}
	for i := range st.unions {
		if t := st.unions[i].table.Load(); t != nil {
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
// episodes, so no sweep ever runs on the execution hot path.
//
// SweepChunk runs concurrently with probes and inserts: every query-set
// word is cleared with a load/CAS pair, and a lost CAS is simply skipped —
// the only concurrent writer is an insert publishing a fresh entry, and a
// freshly inserted entry can never carry a retired query's bit (a query
// only retires once its in-flight episodes have drained, so no episode
// that could insert its bit is still running). Reserved-but-unwritten
// entries (an in-flight InsertVec past count.Add but before its stores)
// read as zero and are counted dead; that only skews the compaction
// heuristic, never correctness. A sweep that clears a bit bumps the sweep
// generation once it is done, which turns every union table built before
// (or during) it stale: a cached union would otherwise hand the swept bits
// to the queries that recycle the retired IDs.
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
	cleared := false
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
					cleared = true
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
	if cleared {
		s.sweepGen.Add(1)
	}
	return dead
}

// CompactLive rebuilds the STeM keeping only entries whose query set is
// non-empty, shrinking both the entry slab and the hash buckets to fit.
// Live entries keep their version slots (already published, so they stay
// visible to later probes). Returns the live entry count.
//
// The rebuild is copy-on-write: a fresh state (new chunks, new buckets) is
// built and published with one atomic store, so probes never block — a
// probe holding the old state sees every live entry there (compaction only
// drops entries whose query set is empty, which no probe output can use).
// Inserts must be fenced by the caller (the engine's per-instance insert
// fence): an insert landing in the old state after the live scan would be
// lost.
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

	ns := newState(st.keyCols, bucketsFor(live), make([]*chunk, 0, (live+chunkSize-1)>>chunkBits), int64(live))
	w := 0
	for idx := 0; idx < n; idx++ {
		if entryEmpty(old, idx, s.qw) {
			continue
		}
		oc := old[idx>>chunkBits]
		ooff := idx & chunkMask
		chunks := *ns.chunks.Load()
		if w>>chunkBits >= len(chunks) {
			next := append(chunks, newChunk(len(ns.keyCols), s.qw))
			ns.chunks.Store(&next)
			chunks = next
		}
		nc := chunks[w>>chunkBits]
		noff := w & chunkMask
		nc.vids[noff] = oc.vids[ooff]
		nc.slots[noff] = oc.slots[ooff]
		for i := 0; i < s.qw; i++ {
			atomic.StoreUint64(&nc.qsets[noff*s.qw+i], atomic.LoadUint64(&oc.qsets[ooff*s.qw+i]))
		}
		ref := int32(w) + 1
		for i := range ns.keyCols {
			k := oc.keys[i][ooff]
			nc.keys[i][noff] = k
			b := &ns.buckets[i][hash64(k)>>ns.shift[i]]
			nc.next[i][noff] = b.Load()
			b.Store(ref)
		}
		w++
	}

	s.state.Store(ns)
	s.count.Store(int64(w))
	s.compactGen.Add(1)
	return w
}

// CompactGen returns the number of CompactLive rebuilds this STeM has
// undergone. CompactLive is the only operation that moves entries to new
// positions (AddIndex and EnsureBuckets share the entry slabs in place),
// so a position-addressed scan — the engine's GC sweep cursor — is valid
// only within one generation: compare across pauses and restart from
// position zero when it moved.
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

// NeedsGrow reports whether the buckets are too few to hold the given
// number of entries at the load factor bucketsFor sizes for (at most one
// entry per two buckets), i.e. whether EnsureBuckets(entries) would rebuild
// them. The engine asks it when it hands out a vector that will build into
// this STeM, with entries = Len() plus the vector's size.
func (s *STeM) NeedsGrow(entries int) bool {
	st := s.state.Load()
	if len(st.keyCols) == 0 {
		return false
	}
	return bucketsFor(entries) > len(st.buckets[0])
}

// NeedsShrink reports whether the STeM holds no entries but bucket arrays
// larger than an empty STeM's — the row-count hint New sized them for, on
// an instance whose scans the build rule left unbuilt, or growth whose
// entries were all swept. CompactLive frees them.
func (s *STeM) NeedsShrink() bool {
	st := s.state.Load()
	return s.Len() == 0 && len(st.keyCols) > 0 && len(st.buckets[0]) > bucketsFor(0)
}

// EnsureBuckets grows every index's bucket array to hold the given number
// of entries at the load factor, rebuilding the hash chains. It never shrinks. The engine calls it when a
// vector about to be built would push the STeM past its load factor; the
// bucket count is a power of two, so each growth at least doubles it and the
// rebuilds cost O(1) per entry amortised.
//
// Copy-on-write like CompactLive: the new state clones every chunk (the
// chain links are rebuilt for the new bucket count, and chain links are
// per-state), shares the old chunks' key and query-set slabs, and is
// published with one atomic store. Probes never block; inserts must be
// fenced by the caller.
func (s *STeM) EnsureBuckets(entries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state.Load()
	if len(st.keyCols) == 0 {
		return
	}
	nb := bucketsFor(entries)
	if nb <= len(st.buckets[0]) {
		return
	}
	old := *st.chunks.Load()
	ns := newState(st.keyCols, nb, cloneChunks(old, len(st.keyCols)), s.count.Load())
	s.rebuildChains(ns)
	s.state.Store(ns)
}

// cloneChunks copies a chunk list for a new state: vID/slot/key/query-set
// storage is shared with the old chunks (those never change for existing
// entries, and query-set words are atomic), while the per-index chain links
// are fresh, because each state rebuilds chains for its own bucket layout
// and the old state's probes keep walking the old links.
func cloneChunks(old []*chunk, nkeys int) []*chunk {
	chunks := make([]*chunk, len(old))
	for ci, oc := range old {
		nc := &chunk{
			vids:  oc.vids,
			slots: oc.slots,
			keys:  oc.keys,
			next:  make([][]int32, nkeys),
			qsets: oc.qsets,
		}
		for i := 0; i < nkeys; i++ {
			nc.next[i] = make([]int32, chunkSize)
		}
		chunks[ci] = nc
	}
	return chunks
}

// rebuildChains re-pushes every entry into every index's (already sized
// and zeroed) buckets of state ns. s.mu must be held.
func (s *STeM) rebuildChains(ns *stemState) {
	chunks := *ns.chunks.Load()
	n := int(s.count.Load())
	for idx := 0; idx < n; idx++ {
		c := chunks[idx>>chunkBits]
		off := idx & chunkMask
		ref := int32(idx) + 1
		for i := range ns.keyCols {
			b := &ns.buckets[i][hash64(c.keys[i][off])>>ns.shift[i]]
			c.next[i][off] = b.Load()
			b.Store(ref)
		}
	}
}

// AddIndex adds a new indexed join-key column, deriving each existing
// entry's key with keyOf(vid) (typically a base-table column lookup). It
// is how a live-admitted query can join an already-built STeM on a column
// no earlier query joined on. No-op if col is already indexed.
//
// Copy-on-write: the new state clones the chunks (sharing existing key
// columns and query-set slabs, with fresh chain links plus the new key
// column) and fresh buckets for every index, then publishes with one
// atomic store. Probes on the old state never see the new column and never
// block; inserts must be fenced by the caller because entries inserted
// during the rebuild would miss the new column's backfill.
func (s *STeM) AddIndex(col string, keyOf func(vid int32) int64) {
	if s.HasIndex(col) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state.Load()
	ki := len(st.keyCols)
	keyCols := append(append([]string{}, st.keyCols...), col)

	nb := 64
	if ki > 0 {
		nb = len(st.buckets[0])
	} else {
		nb = bucketsFor(int(s.count.Load()))
	}

	old := *st.chunks.Load()
	chunks := cloneChunks(old, ki+1)
	for _, nc := range chunks {
		nc.keys = append(append([][]int64{}, nc.keys...), make([]int64, chunkSize))
	}
	n := int(s.count.Load())
	ns := newState(keyCols, nb, chunks, int64(n))
	for idx := 0; idx < n; idx++ {
		c := chunks[idx>>chunkBits]
		off := idx & chunkMask
		c.keys[ki][off] = keyOf(c.vids[off])
	}
	s.rebuildChains(ns)
	s.state.Store(ns)
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
