// Package stem implements State Modules (STeMs), the per-relation indexes
// that RouLette's history-independent multi-query n-ary symmetric hash join
// is built on (Raman et al., ICDE 2003; Sioulas & Ailamaki §3, §5.1).
//
// A STeM stores unified entries (index-vector of join keys, vID, stamp,
// query-set) and indexes each join-key column with a short list of
// immutable union tables (vec.go). The tables hold the entries themselves:
// every table keeps each entry's vID, stamp and query-set words, so a
// merge, a sweep, a compaction or a new index reads its entries back from
// tables. Inserts are staged: InsertVec writes its entries into fixed-size
// chunks without a lock and records their range, and the first probe or
// prune that finds recorded ranges builds a table over them. A chunk is
// dropped once every index has built all of its recorded positions and no
// insert is writing it.
//
// Insert-probe atomicity across concurrent episodes stands in for the
// paper's batch versioning, which gives each vector a local version and
// publishes it to a global timestamp after the insert, because its entries
// are visible in shared tables as soon as they are written. Here an entry
// reaches a probe only through a table built over a recorded range, so the
// record is the publication: InsertVec, under the STeM's mutex, appends its
// record, counts it in logged, and only then draws its stamp from the
// session clock (Versions). A probe at timestamp probeTS sees exactly the
// entries whose stamp is older than probeTS, and a pair of tuples is joined
// by the episode with the later stamp. The order is what makes this exact:
// a probe whose timestamp was drawn after a stamp loads logged after the
// record counted itself there. Either its index has built the record
// already, under the mutex and so after the stamp was stored, or the probe
// finds the index behind (built != logged) and builds under the mutex,
// which it takes only once the recorder has stored the stamp. Either way
// no table the probe reads misses the entry or its stamp.
// An episode therefore probes at its own insert's stamp, or at a fresh
// Versions.Now when it inserted nothing, and takes one tick either way.
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

// Versions is the session-wide clock every STeM stamps its inserts with
// (§5.2 "Scalable versioning", substituted as the package doc says). One
// counter hands out every tick: an insert's stamp, drawn when it records its
// range, and the timestamp of a probe that inserted nothing (Now).
type Versions struct {
	clock atomic.Int64 // the last tick; 0 is never a stamp
}

// NewVersions creates a clock at 0.
func NewVersions() *Versions { return &Versions{} }

// Slot numbers an episode (exec.EpisodeInput.Slot). It is no longer a
// version slot: stamps replaced those, and InsertVec and Publish ignore it.
type Slot int32

// Publish is inert. It stays because benchmark/trace.go calls it.
func (v *Versions) Publish(Slot) {}

// Watermark is inert. It stays because benchmark/trace.go passes its value
// to ProbeVec.
func (v *Versions) Watermark() Slot { return 0 }

// Now returns a fresh tick: a probe timestamp newer than the stamp of every
// insert that has returned.
func (v *Versions) Now() int64 { return v.clock.Add(1) }

// Frontier returns the current value of the clock without advancing it. It
// is a read-only causal stamp — suitable for tagging observability events
// with "how far had the clock moved when this happened" — and must never be
// used as a probe timestamp (those must be drawn with Now, or be the
// prober's own stamp, so they exceed every stamp recorded before them).
func (v *Versions) Frontier() int64 { return v.clock.Load() }

// chunk stages a fixed-size block of inserted entries in columnar form
// until every index has built them into its tables. Each position is
// written by the insert that reserved it, before the insert records it;
// builds read it under the STeM's mutex after the record.
type chunk struct {
	vids  [chunkSize]int32
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
// cols key columns its inserter wrote, and the stamp it drew when recorded.
type rec struct {
	lo, hi int64
	cols   int
	stamp  int32
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

// record appends the finished insert r to the log, stamps it and releases
// the chunks its inserter entered, returning the stamp. The stamp is drawn
// after logged counts the record, which is what makes it visible to every
// probe at a later timestamp (see the package doc). The STeM's mutex must be
// held.
func (s *STeM) record(r rec) int64 {
	s.log = append(s.log, r)
	s.logged.Add(1)
	stamp := s.versions.clock.Add(1)
	s.log[len(s.log)-1].stamp = int32(stamp)
	g := s.stage.Load()
	for ci := r.lo >> chunkBits; ci <= (r.hi-1)>>chunkBits; ci++ {
		g.at(ci).users.Add(-1)
	}
	return stamp
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
	return chunkSize*(4+int64(len(c.keys))*8) + int64(len(c.qsets))*8
}

// EstBytes estimates the STeM's resident memory: its staging chunks (vIDs,
// key columns, query-set slab) plus every index's union tables.
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
// returns the entries left. Live entries keep their stamps, so they stay
// visible to the probes that saw them, and the next probe reads the merged
// table as it stands.
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
	visit := func(_ int64, vid int32, _ int32, ws []uint64) { f(vid, slices.Clone(bitset.Set(ws))) }
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
