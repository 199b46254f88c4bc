// Package stem implements State Modules (STeMs), the per-relation indexes
// that RouLette's history-independent multi-query n-ary symmetric hash join
// is built on (Raman et al., ICDE 2003; Sioulas & Ailamaki §3, §5.1).
//
// A STeM stores unified entries (index-vector of join keys, vID, version
// slot, query-set) and indexes each join-key column with a short list of
// immutable union tables (vec.go). The tables hold the entries themselves:
// every table keeps each entry's vID, version slot and query-set words, so a
// merge, a sweep, a compaction or a new index reads its entries back from
// tables. Inserts are staged: InsertVec writes its entries into fixed-size
// chunks without a lock and records their range, and the first probe or
// prune that finds recorded ranges builds a table over them. A chunk is
// dropped once every index has built all of its recorded positions and no
// insert is writing it. Insert-probe
// atomicity across concurrent episodes uses the paper's batch versioning:
// every inserted vector takes one STeM-local version slot that is later
// published to a global timestamp with a single atomic, and probes accept
// only entries whose published timestamp is strictly older than the
// probing episode's.
//
// Maintenance (building, sweeping and compacting tables, adding an index)
// runs under the STeM's mutex and publishes each index's new table list
// with one atomic store, so probes never block on it, and it never touches
// an insert's staged positions before the insert records them, so inserts
// need no fence either: an insert that loaded the key columns before an
// AddIndex records its range after it, and the new index derives the key
// its inserter did not write.
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

// chunk stages a fixed-size block of inserted entries in columnar form
// until every index has built them into its tables. Each position is
// written by the insert that reserved it, before the insert records it;
// builds read it under the STeM's mutex after the record.
type chunk struct {
	vids  [chunkSize]int32
	slots [chunkSize]Slot
	keys  [][]int64 // one column per index the STeM had when the chunk was made
	qsets []uint64  // chunkSize * qw words

	// users counts the inserts writing the chunk that have not recorded
	// their range yet, and is −1 once the chunk is dropped: an insert
	// enters only a chunk that is not, and trim drops only a chunk that no
	// insert has entered.
	users atomic.Int32
}

// enter registers an insert writing c, unless c was dropped.
func (c *chunk) enter() bool {
	for {
		u := c.users.Load()
		if u < 0 {
			return false
		}
		if c.users.CompareAndSwap(u, u+1) {
			return true
		}
	}
}

// staging is the chunks of a STeM: chunks[i] stages chunk number first+i,
// entry positions [(first+i)·chunkSize, (first+i+1)·chunkSize), and is nil
// when no chunk stages them. It never changes once published; the STeM's
// mutex publishes a new one.
type staging struct {
	first  int64
	chunks []*chunk
}

// rec is one finished insert: the staged positions [lo, hi), whose first
// cols key columns its inserter wrote.
type rec struct {
	lo, hi int64
	cols   int
}

// stemState is the key columns of a STeM and their indexes, one per column.
// AddIndex publishes a new state with one atomic pointer store; the indexes
// themselves are shared from state to state.
type stemState struct {
	keyCols []string
	colIdx  map[string]int
	index   []*index
}

// STeM is the state module for one relation instance.
type STeM struct {
	versions *Versions
	qw       int // query-set words per entry

	state atomic.Pointer[stemState]
	stage atomic.Pointer[staging]
	spare sync.Pool    // dropped chunks, for the next chunk the staging needs
	gone  atomic.Int64 // entries compaction dropped

	// mu guards the staging's growth and drops, the record log and every
	// table build, sweep, compaction and AddIndex. log holds the records
	// some index has not built yet, log[0] being record number logBase.
	mu      sync.Mutex
	log     []rec
	logBase int64
	logged  atomic.Int64 // records so far: logBase + len(log)
	_       [56]byte
	count   atomic.Int64 // positions reserved
	_       [56]byte     // keep the hot insert counter off neighboring lines
}

// newState builds a state for the given key columns and their indexes.
func newState(keyCols []string, index []*index) *stemState {
	st := &stemState{
		keyCols: keyCols,
		colIdx:  make(map[string]int, len(keyCols)),
		index:   index,
	}
	for i, c := range keyCols {
		st.colIdx[c] = i
	}
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
	idx := make([]*index, len(keyCols))
	for i := range idx {
		idx[i] = &index{}
		idx[i].tables.Store(&noTables)
	}
	s.state.Store(newState(keyCols, idx))
	s.stage.Store(&staging{})
	return s
}

// HasIndex reports whether col is indexed.
func (s *STeM) HasIndex(col string) bool {
	_, ok := s.state.Load().colIdx[col]
	return ok
}

// Len returns the number of entries: those inserted, less those
// compaction dropped.
func (s *STeM) Len() int { return int(s.count.Load() - s.gone.Load()) }

// at returns the chunk staging chunk number ci, nil if there is none.
func (g *staging) at(ci int64) *chunk {
	if ci < g.first || ci-g.first >= int64(len(g.chunks)) {
		return nil
	}
	return g.chunks[ci-g.first]
}

// enter returns the chunk staging chunk number ci, entered for an insert
// that reserved a position in it, making the chunk when the staging has
// none: it was never needed, or trim dropped it while no insert held it.
// The insert leaves it once it has recorded its range (record). A chunk
// found without the mutex is checked to still stage ci once entered: a
// dropped chunk may have been made spare and staged again for another
// number meanwhile, and an entered one stays where it is.
func (s *STeM) enter(ci int64) *chunk {
	if c := s.stage.Load().at(ci); c != nil && c.enter() {
		if s.stage.Load().at(ci) == c {
			return c
		}
		c.users.Add(-1)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.stage.Load()
	if g.at(ci) == nil {
		first, last := ci, ci+1
		if len(g.chunks) > 0 {
			first, last = min(g.first, ci), max(g.first+int64(len(g.chunks)), ci+1)
		}
		cs := make([]*chunk, last-first)
		if len(g.chunks) > 0 {
			copy(cs[g.first-first:], g.chunks)
		}
		cs[ci-first] = s.newChunk()
		g = &staging{first: first, chunks: cs}
		s.stage.Store(g)
	}
	c := g.at(ci)
	c.users.Add(1) // a chunk in the staging is not dropped while the mutex is held
	return c
}

// record appends the finished insert r to the log and releases the chunks
// its inserter entered. The STeM's mutex must be held.
func (s *STeM) record(r rec) {
	s.log = append(s.log, r)
	s.logged.Add(1)
	g := s.stage.Load()
	for ci := r.lo >> chunkBits; ci <= (r.hi-1)>>chunkBits; ci++ {
		g.at(ci).users.Add(-1)
	}
}

// newChunk returns a chunk for the staging: a dropped one of the STeM's
// shape when one is spare, else a new one. A spare chunk's positions hold
// stale entries, which no build reads: every position is written before it
// is recorded. The STeM's mutex must be held.
func (s *STeM) newChunk() *chunk {
	nkeys := len(s.state.Load().keyCols)
	if c, _ := s.spare.Get().(*chunk); c != nil && len(c.keys) == nkeys {
		c.users.Store(0)
		return c
	}
	c := &chunk{keys: make([][]int64, nkeys), qsets: make([]uint64, chunkSize*s.qw)}
	for i := range c.keys {
		c.keys[i] = make([]int64, chunkSize)
	}
	return c
}

// bytes is the chunk's resident size for EstBytes.
func (c *chunk) bytes() int64 {
	return chunkSize*(4+4+int64(len(c.keys))*8) + int64(len(c.qsets))*8
}

// EstBytes estimates the STeM's resident memory: its staging chunks (vIDs,
// slots, key columns, query-set slab) plus every index's union tables.
// Observability only; the estimate ignores Go object headers.
func (s *STeM) EstBytes() int64 {
	var n int64
	for _, c := range s.stage.Load().chunks {
		if c != nil {
			n += c.bytes()
		}
	}
	for _, ix := range s.state.Load().index {
		for _, t := range *ix.tables.Load() {
			n += t.bytes()
		}
	}
	return n
}

// trim drops from the log the records every index has built, and from the
// staging every chunk that no record left in the log overlaps and no
// insert has entered, keeping it spare for the next chunk. A STeM without
// an index keeps them all: an AddIndex builds them. The STeM's mutex must
// be held.
func (s *STeM) trim() {
	idx := s.state.Load().index
	if len(idx) == 0 {
		return
	}
	m := idx[0].built.Load()
	for _, ix := range idx[1:] {
		m = min(m, ix.built.Load())
	}
	n := int(m - s.logBase)
	if n == 0 {
		return // a chunk is dropped only once the records over it are built
	}
	s.log = append(s.log[:0], s.log[n:]...)
	s.logBase = m
	g := s.stage.Load()
	pending := func(ci int64) bool {
		for _, r := range s.log {
			if r.lo>>chunkBits <= ci && ci <= (r.hi-1)>>chunkBits {
				return true
			}
		}
		return false
	}
	var cs []*chunk
	for i, c := range g.chunks {
		if c == nil || pending(g.first+int64(i)) || !c.users.CompareAndSwap(0, -1) {
			continue
		}
		if cs == nil {
			cs = slices.Clone(g.chunks)
		}
		cs[i] = nil
		s.spare.Put(c)
	}
	if cs == nil {
		return
	}
	lo, hi := 0, len(cs)
	for lo < hi && cs[lo] == nil {
		lo++
	}
	for hi > lo && cs[hi-1] == nil {
		hi--
	}
	s.stage.Store(&staging{first: g.first + int64(lo), chunks: cs[lo:hi]})
}

// SweepIndex clears the retired queries' bits from the STeM: every index
// first builds the ranges recorded since its last build, and each table
// holding a retired bit is then replaced by a swept copy, so a table stays
// immutable and its readers need no atomics. It returns how many entries
// are left with an empty query set. The engine calls it in its GC pass,
// before the retired IDs are reused; an insert that records later carries
// no retired bit, since a query retires only once the episodes that could
// insert its bit have finished. It holds the mutex that builds hold, so it
// never interleaves with one; a probe that loaded the old list finishes on
// it and may see a bit before its sweep.
func (s *STeM) SweepIndex(retired bitset.Set) (dead int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state.Load()
	for ki, ix := range st.index {
		ts := slices.Clone(s.catchUp(st, ki, false, false))
		for i, t := range ts {
			ts[i] = t.swept(retired)
			if ki == 0 {
				dead += ts[i].dead()
			}
		}
		ix.tables.Store(&ts)
	}
	return dead
}

// CompactLive merges every index's tables and recorded ranges into one
// table that keeps only the entries whose query set is non-empty, and
// returns the entries left. Live entries keep their version slots (already
// published, so they stay visible to later probes), and the next probe
// reads the merged table as it stands.
//
// Compaction holds the mutex that builds hold and publishes each index's
// table with one atomic store, so probes never block: a probe holding the
// old list sees every live entry there (compaction only drops entries whose
// query set is empty, which no probe output can use). An insert in flight
// records its range after the compaction, which leaves it pending.
func (s *STeM) CompactLive() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state.Load()
	if len(st.index) == 0 {
		return s.Len()
	}
	before := s.builtEntries(st.index[0])
	for ki := range st.index {
		s.catchUp(st, ki, true, true)
	}
	s.gone.Add(before - s.builtEntries(st.index[0]))
	return s.Len()
}

// builtEntries counts the entries of ix's tables and of the records it has
// not built. The STeM's mutex must be held.
func (s *STeM) builtEntries(ix *index) int64 {
	var n int64
	for _, t := range *ix.tables.Load() {
		n += int64(t.entries)
	}
	for _, r := range s.log[ix.built.Load()-s.logBase:] {
		n += r.hi - r.lo
	}
	return n
}

// AddIndex adds a new indexed join-key column, deriving each entry's key
// with keyOf(vid) (typically a base-table column lookup). It is how a
// live-admitted query can join an already-built STeM on a column no earlier
// query joined on. No-op if col is already indexed.
//
// The new index starts from the first index's tables, its entries re-keyed
// with keyOf, and from the records that index has not built; it builds
// every later record too. A record whose inserter wrote fewer key columns —
// an episode on a view from before the column, still inserting — takes its
// key from keyOf as well. Probes on the old state never see the new column
// and never block.
func (s *STeM) AddIndex(col string, keyOf func(vid int32) int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state.Load()
	if _, ok := st.colIdx[col]; ok {
		return
	}
	ix := &index{keyOf: keyOf}
	ki := len(st.keyCols)
	next := noTables
	if len(st.index) == 0 {
		ix.built.Store(s.logBase)
	} else {
		src := st.index[0]
		ix.built.Store(src.built.Load())
		if ts := *src.tables.Load(); len(ts) > 0 {
			deltas := 0
			for _, t := range ts {
				deltas += t.deltas
			}
			next = []*unionTable{s.build(ix, ki, nil, ts, deltas, true, false)}
		}
	}
	ix.tables.Store(&next)
	keyCols := append(slices.Clip(st.keyCols), col)
	s.state.Store(newState(keyCols, append(slices.Clip(st.index), ix)))
}

// Each calls f with the vID and a copy of the query set of every entry
// whose insert has recorded its range, in no particular order (test and
// diagnostic use).
func (s *STeM) Each(f func(vid int32, qs bitset.Set)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	visit := func(_ int64, vid int32, _ Slot, ws []uint64) { f(vid, slices.Clone(bitset.Set(ws))) }
	if st := s.state.Load(); len(st.index) > 0 {
		for _, t := range s.catchUp(st, 0, false, false) {
			t.each(visit)
		}
		return
	}
	none := &index{keyOf: func(int32) int64 { return NullKey }}
	for _, r := range s.log {
		s.eachStaged(r, 0, none, visit)
	}
}
