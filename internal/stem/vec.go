package stem

import (
	"math"
	"math/bits"
	"sync/atomic"

	"github.com/roulette-db/roulette/internal/bitset"
)

// This file holds the STeM kernels. Each takes a whole episode vector, so
// synchronization is paid per vector rather than per tuple (§5.2 "Scalable
// versioning"):
//
//   - InsertVec reserves the whole vector's index range with a single
//     count.Add(n), bulk-writes the entry columns chunk segment by chunk
//     segment, pre-links the intra-batch hash chains in caller-owned
//     scratch, and splices each *distinct* bucket with one CAS — the batch
//     costs ~distinct-buckets CASes, not len(vec)×keys.
//   - ProbeVecRange reads the probing vector where it lies (Probe): each
//     tuple's key through its vID and its words from the caller's slab,
//     masked to the probe's queries. It skips tuples left with no bit, reads
//     each remaining key's entries from a cached table (unionTable), one
//     slot per key and no chain walk, when the table is current and older
//     than the probe; otherwise it batch-hashes a block of keys, preloads
//     bucket heads and walks the chains, consulting the publication
//     watermark: entries whose slot is under the watermark skip the
//     per-entry timestamp load entirely. It keeps only the entries that share
//     a query with their tuple, writing the intersections out. ProbeVec is
//     its unmasked, full-width form over a plain key list.
//   - PruneVec is the symmetric-join-pruning kernel: it masks the probing
//     tuples' query sets in place over one word range and compacts the
//     survivors in the same pass, reading each key's union from the same
//     table, or from a chain walk that stages head entries as the probe's
//     does when no table can be built.
//
// Memory-ordering argument: every entry write — vIDs, slots, keys, query
// sets, intra-batch next links — happens before the bucket CAS that makes
// the batch reachable, and probes load the bucket head with acquire
// semantics, so a reachable entry is always fully written. Entries stay
// invisible to result probes until their slot is published regardless: a
// probe that finds the slot unpublished rejects it after sealing it
// (Versions.visibleAt), which pins the slot's eventual timestamp above the
// probe's, so the rejection cannot race with an in-flight publish.
//
// Query-set words are stored and loaded with sync/atomic throughout: the
// concurrent GC sweeper clears retired bits in place while these kernels
// run, and mixed plain/atomic access on the same words would both race and
// tear under the race detector.

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

// probes returns how many of p's tuples probe over nw words: those with a
// bit under the mask, or all of them unmasked.
func (p *Probe) probes(nw int) int {
	if p.Qsets == nil {
		return len(p.VIDs)
	}
	n := 0
	for i := range p.VIDs {
		if bitset.Intersects(p.words(i, nw), p.Mask) {
			n++
		}
	}
	return n
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

// InsertScratch is the worker-local scratch for InsertVec's intra-batch
// chain building: an epoch-stamped open-addressing table deduplicating
// bucket indices, and the per-distinct-bucket chain heads and tails. The
// zero value is ready to use; buffers grow to the largest batch seen and
// are reused, so steady-state inserts do not allocate.
type InsertScratch struct {
	table []uint64 // epoch<<32 | (distinct index + 1); epoch mismatch = empty
	epoch uint32
	mask  uint32

	dbuck []int32 // distinct bucket index
	dhead []int32 // entry ref of the batch chain's first entry
	dtail []int32 // entry ref of the batch chain's last entry
	nd    int
}

// begin readies the scratch for a batch of n tuples: the dedup table holds
// at least 2n cells (power of two) and a bumped epoch empties it without
// clearing.
func (sc *InsertScratch) begin(n int) {
	want := 1
	for want < 2*n {
		want <<= 1
	}
	if want < 64 {
		want = 64
	}
	if len(sc.table) < want {
		sc.table = make([]uint64, want)
		sc.dbuck = make([]int32, 0, n)
		sc.dhead = make([]int32, 0, n)
		sc.dtail = make([]int32, 0, n)
		sc.epoch = 0
	}
	sc.mask = uint32(len(sc.table) - 1)
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stale cells could alias; clear once
		for i := range sc.table {
			sc.table[i] = 0
		}
		sc.epoch = 1
	}
	sc.dbuck = sc.dbuck[:0]
	sc.dhead = sc.dhead[:0]
	sc.dtail = sc.dtail[:0]
	sc.nd = 0
}

// lookupOrAdd returns the distinct-list index of bucket b, adding it on
// first sight. Linear probing over the epoch-stamped table.
func (sc *InsertScratch) lookupOrAdd(b int32) int {
	tag := uint64(sc.epoch) << 32
	for cell := uint32(b) & sc.mask; ; cell = (cell + 1) & sc.mask {
		v := sc.table[cell]
		if v>>32 != uint64(sc.epoch) {
			li := sc.nd
			sc.table[cell] = tag | uint64(uint32(li+1))
			sc.dbuck = append(sc.dbuck, b)
			sc.dhead = append(sc.dhead, 0)
			sc.dtail = append(sc.dtail, 0)
			sc.nd++
			return li
		}
		li := int(uint32(v)) - 1
		if sc.dbuck[li] == b {
			return li
		}
	}
}

// InsertVec adds len(vids) tuples in bulk, all stamped with version slot
// slot. keyCols holds one key column per indexed column (index order),
// each of length len(vids); qsets is the tuples' query-set slab with qw
// words per tuple. keyCols may carry extra trailing columns beyond the
// STeM's current index count (a worker acting on a newer context view than
// the STeM's pending AddIndex); the extras are ignored. The tuples become
// visible to probes once the slot is published. sc must not be shared
// between concurrent callers; pass a fresh or worker-owned scratch.
//
// Entries of one batch that hit the same bucket are chained in batch order,
// batches in last-in-first-out order; probes promise match *sets*, not an
// order.
func (s *STeM) InsertVec(vids []int32, keyCols [][]int64, qsets []uint64, qw int, slot Slot, sc *InsertScratch) {
	if len(vids) == 0 {
		return
	}
	st, base := s.reserve(len(vids))
	s.fill(st, base, vids, keyCols, qsets, qw, slot, sc)
}

// reserve is InsertVec's first half: it claims n entry positions of the
// current state, returned with the state and the first position.
func (s *STeM) reserve(n int) (*stemState, int64) {
	st := s.state.Load()
	return st, s.count.Add(int64(n)) - int64(n)
}

// fill is InsertVec's second half: it writes the reserved entries
// [base, base+len(vids)) of state st, splices them into the chains and
// commits them.
func (s *STeM) fill(st *stemState, base int64, vids []int32, keyCols [][]int64, qsets []uint64, qw int, slot Slot, sc *InsertScratch) {
	n := len(vids)
	// Materialize every chunk the batch touches, then bulk-write the entry
	// columns one chunk segment at a time.
	s.chunkFor(st, base+int64(n)-1)
	chunks := *st.chunks.Load()
	for i0 := 0; i0 < n; {
		idx := base + int64(i0)
		c := chunks[idx>>chunkBits]
		off := int(idx) & chunkMask
		seg := chunkSize - off
		if seg > n-i0 {
			seg = n - i0
		}
		copy(c.vids[off:off+seg], vids[i0:i0+seg])
		for j := 0; j < seg; j++ {
			c.slots[off+j] = slot
		}
		for j := 0; j < seg; j++ {
			src := qsets[(i0+j)*qw : (i0+j+1)*qw]
			dst := c.qsets[(off+j)*s.qw : (off+j+1)*s.qw]
			for w := range dst {
				var v uint64
				if w < len(src) {
					v = src[w]
				}
				atomic.StoreUint64(&dst[w], v)
			}
		}
		for k := range st.keyCols {
			copy(c.keys[k][off:off+seg], keyCols[k][i0:i0+seg])
		}
		i0 += seg
	}
	for ki := range st.keyCols {
		s.spliceBatch(st, ki, base, n, keyCols[ki], sc, chunks)
	}
	st.committed.Add(int64(n))
}

// spliceBatch links the batch's entries into index ki's hash chains: one
// pass groups the batch per distinct bucket (chaining group members through
// the entries' own next links, which nothing can read yet), then each
// distinct bucket is spliced in front of its current chain with a single
// CAS.
func (s *STeM) spliceBatch(st *stemState, ki int, base int64, n int, keys []int64, sc *InsertScratch, chunks []*chunk) {
	sc.begin(n)
	buckets := st.buckets[ki]
	shift := st.shift[ki]
	for i := 0; i < n; i++ {
		b := int32(hash64(keys[i]) >> shift)
		li := sc.lookupOrAdd(b)
		ref := int32(base) + int32(i) + 1
		if sc.dhead[li] == 0 {
			sc.dhead[li] = ref
		} else {
			prev := int(sc.dtail[li]) - 1
			chunks[prev>>chunkBits].next[ki][prev&chunkMask] = ref
		}
		sc.dtail[li] = ref
	}
	for li := 0; li < sc.nd; li++ {
		b := &buckets[sc.dbuck[li]]
		tail := int(sc.dtail[li]) - 1
		tnext := &chunks[tail>>chunkBits].next[ki][tail&chunkMask]
		for {
			head := b.Load()
			*tnext = head
			if b.CompareAndSwap(head, sc.dhead[li]) {
				break
			}
		}
	}
}

// probeBlock sizes the chain walks' bucket-head preload: heads for a block
// of keys are hashed and loaded before any chain is walked, so the loads'
// cache misses overlap instead of serializing with the walks.
const probeBlock = 128

// ProbeVec probes every key of keys on column col, appending each match to
// dst tagged with the key's input position, and the matched entry's s.qw
// query-set words (atomically loaded) to qbuf in match order: the k-th
// match this call appends has its words at qbuf[q0+k*s.qw:], q0 being
// len(qbuf) on entry. Both grow with append and are returned; callers reuse
// them across calls so the steady state does not allocate.
//
// An entry matches when its key equals the probe key and its slot's
// published timestamp is strictly older than probeTS. probeTS must have
// been drawn from the STeM's Versions table (Publish or Now) before the
// probe began. Entries whose slot is still unpublished are rejected without
// waiting: the reject seals the slot at probeTS (Versions.visibleAt), which
// forces the slot's eventual publication onto a timestamp newer than
// probeTS — so the rejection is correct even against a publish that drew
// its timestamp before probeTS but had not stored it yet (the draw-to-store
// window). A NullKey probe key matches nothing: SQL NULL never equals
// anything, itself included, and build-side NULL entries are unreachable
// because no probe for their key ever walks a chain.
//
// wm amortizes the visibility check: it must be a watermark value read
// *before* probeTS was drawn (Versions.Watermark, or the pair returned by
// Publish), which guarantees every slot under wm carries a timestamp older
// than probeTS, so those entries (the stable majority in a long-lived
// session) skip the per-entry timestamp load entirely. Pass wm 0 to
// disable the short-circuit.
func (s *STeM) ProbeVec(dst []VecMatch, qbuf []uint64, col string, keys []int64, probeTS int64, wm Slot) ([]VecMatch, []uint64) {
	dst, qbuf, _ = s.ProbeVecRange(dst, qbuf, col, Probe{Keys: keys, VIDs: identity(len(keys))}, probeTS, wm, 0, s.qw)
	return dst, qbuf
}

// ProbeVecRange is ProbeVec over the tuples of p and the query-set words
// [lo, hi) only, with lo < hi <= the STeM's width, fused with the
// intersection a join applies to each match: a tuple with no bit under
// p.Mask is not probed, an entry matches only if its words share a bit with
// its tuple's masked words, and the hi-lo words appended to qout per match
// are that intersection. An unmasked p (nil Qsets) keeps every match with
// the entry's own words, as ProbeVec does. Matches come in tuple order, and
// the call also returns how many tuples it probed. The executor passes its
// plan node's word range, its input vector's slab and the node's queries as
// the mask, so qout is its output vector's query-set slab.
//
// The probe is served from the index's union table instead of the chain
// walk when the table is current (union) and every entry in it was
// published before probeTS (maxTS < probeTS): the table then returns
// exactly the walk's matches, in an order of its own, and seals nothing.
// An entry the probe must see was published before probeTS was drawn, so
// it committed before this call loaded the committed count, and a current
// table holds it. An entry the table lacks commits after that load, so its
// slot's timestamp is drawn after probeTS and the probe must not see it;
// the seal that settles the draw-to-store window for the walk is not
// needed. A key whose union misses its tuple's words is dropped whole.
func (s *STeM) ProbeVecRange(dst []VecMatch, qout []uint64, col string, p Probe, probeTS int64, wm Slot, lo, hi int) ([]VecMatch, []uint64, int) {
	// The state is loaded once per call: a structural swap mid-call leaves
	// this probe on the frozen old state, which is safe — any insert the
	// probe is required to see (timestamp older than probeTS) happened
	// before this call's state load (the inserter inserted, then drew its
	// timestamp from the counter before probeTS was drawn), so it is in the
	// loaded state.
	st := s.state.Load()
	nw := hi - lo
	ki, ok := st.colIdx[col]
	if !ok {
		return dst, qout, p.probes(nw)
	}
	// A current table serves at once. Otherwise what this call walks, the
	// probing tuples' words, pays towards a build (union); a caller that
	// walks nothing must not build, as a walk of nothing pays nothing.
	t, c, gen := s.cachedUnion(st, ki)
	if t == nil {
		n := p.probes(nw)
		if n == 0 {
			return dst, qout, 0
		}
		t = s.union(st, ki, c, gen, n*nw)
	}
	if t != nil && t.maxTS < probeTS {
		return t.probe(dst, qout, &p, lo, hi)
	}
	return s.walkChains(st, ki, dst, qout, &p, probeTS, wm, lo, hi)
}

// keep finishes one match of tuple in whose words were just appended to
// qout from position n: unless tw is nil, it ANDs them with the tuple's
// words tw and the mask, then appends the match (in, vid) to dst, or drops
// the words again when nothing is left.
func keep(dst []VecMatch, qout []uint64, n int, tw, mask []uint64, in, vid int32) ([]VecMatch, []uint64) {
	if tw != nil {
		o := qout[n:]
		var left uint64
		for w, x := range tw {
			o[w] &= x & mask[w]
			left |= o[w]
		}
		if left == 0 {
			return dst, qout[:n]
		}
	}
	return append(dst, VecMatch{In: in, VID: vid}), qout
}

// walkChains is ProbeVecRange's chain walk over state st's index ki.
func (s *STeM) walkChains(st *stemState, ki int, dst []VecMatch, qout []uint64, p *Probe, probeTS int64, wm Slot, lo, hi int) ([]VecMatch, []uint64, int) {
	nw := hi - lo
	masked := p.Qsets != nil
	buckets := st.buckets[ki]
	shift := st.shift[ki]
	var heads [probeBlock]int32
	var pKey [probeBlock]int64
	var eKey [probeBlock]int64
	var eNext [probeBlock]int32
	var eSlot [probeBlock]Slot
	var eVID [probeBlock]int32
	probed := 0
	for i0 := 0; i0 < len(p.VIDs); i0 += probeBlock {
		m := min(len(p.VIDs)-i0, probeBlock)
		for j := 0; j < m; j++ {
			heads[j] = 0
			if masked && !bitset.Intersects(p.words(i0+j, nw), p.Mask) {
				continue
			}
			probed++
			k := p.Keys[p.VIDs[i0+j]]
			if k == NullKey {
				continue // NULL probe keys match nothing, see NullKey
			}
			pKey[j], heads[j] = k, buckets[hash64(k)>>shift].Load()
		}
		// The chunk snapshot must be taken after the block's head loads:
		// every entry reachable from a head had its chunk appended before
		// that head was CASed, and a state's chunk list only grows, so a
		// snapshot ordered after the head loads covers every chain the
		// block walks. The opposite order races with a concurrent insert
		// extending the slab.
		chunks := *st.chunks.Load()
		// Stage the head entries' fields in a branch-light pass: the loads
		// are independent across keys, so their cache misses overlap instead
		// of serializing behind the chain walk's branches. Unique-key
		// (dimension) probes resolve entirely from this stage.
		for j := 0; j < m; j++ {
			ref := heads[j]
			if ref == 0 {
				continue
			}
			idx := int(ref) - 1
			c := chunks[idx>>chunkBits]
			off := idx & chunkMask
			eKey[j] = c.keys[ki][off]
			eNext[j] = c.next[ki][off]
			eSlot[j] = c.slots[off]
			eVID[j] = c.vids[off]
		}
		for j := 0; j < m; j++ {
			ref := heads[j]
			if ref == 0 {
				continue
			}
			key := pKey[j]
			in := int32(i0 + j)
			var tw []uint64
			if masked {
				tw = p.words(i0+j, nw)
			}
			if eKey[j] == key {
				slot := eSlot[j]
				if slot < wm || s.versions.visibleAt(slot, probeTS) {
					idx := int(ref) - 1
					qs := chunks[idx>>chunkBits].qsets[(idx&chunkMask)*s.qw:]
					n := len(qout)
					for w := lo; w < hi; w++ {
						qout = append(qout, atomic.LoadUint64(&qs[w]))
					}
					dst, qout = keep(dst, qout, n, tw, p.Mask, in, eVID[j])
				}
			}
			for ref = eNext[j]; ref != 0; {
				idx := int(ref) - 1
				c := chunks[idx>>chunkBits]
				off := idx & chunkMask
				if c.keys[ki][off] == key {
					slot := c.slots[off]
					if slot < wm || s.versions.visibleAt(slot, probeTS) {
						qs := c.qsets[off*s.qw:]
						n := len(qout)
						for w := lo; w < hi; w++ {
							qout = append(qout, atomic.LoadUint64(&qs[w]))
						}
						dst, qout = keep(dst, qout, n, tw, p.Mask, in, c.vids[off])
					}
				}
				ref = c.next[ki][off]
			}
		}
	}
	return dst, qout, probed
}

// PruneVec is the symmetric-join-pruning kernel (§5.2): a probing tuple
// keeps an eligible query's bit only if some published entry matching its
// key on col carries that bit too. The tuples are vids, with their words in
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
// Publication needs no timestamp ordering here, and unpublished slots are
// skipped, not sealed: the caller prunes only against a STeM whose every
// vector has been inserted and published. The prune reads each key's union
// from the index's union table, built at once when none is current (union);
// only when no table can be built does it walk the chains (pruneWalk). A
// column the STeM does not index yet prunes nothing.
func (s *STeM) PruneVec(vids []int32, qsets []uint64, qw int, elig bitset.Set, lo, hi int, col string, keys []int64, acc []uint64) int {
	st := s.state.Load()
	ki, ok := st.colIdx[col]
	if !ok {
		return len(vids)
	}
	t, c, gen := s.cachedUnion(st, ki)
	if t == nil {
		t = s.union(st, ki, c, gen, 0)
	}
	switch {
	case t == nil || lo == hi:
		// No table, or no word to mask: the walk then only drops the empty
		// tuples, which the loops below cannot do on a one-word table,
		// whose u is the union word, not an offset into us.
		return s.pruneWalk(st, ki, vids, qsets, qw, elig, lo, hi, keys, acc)
	case qw == 1 && hi-lo == 1:
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
	elig = elig[lo:hi]
	for i, vid := range vids {
		row, dst := qsets[i*qw:][:qw], qsets[n*qw:][:qw]
		u := t.us[int(t.slot(keys[vid]).u)+lo:][:nw]
		var has uint64
		for w, e := range elig {
			x := row[lo+w] & (u[w] | ^e)
			dst[lo+w] = x
			has |= x
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

// survive is pruneWalk's compaction step: it moves tuple i, with its qw
// words, to position n <= i of vids and qsets when any of its words is
// set, and returns the next free position.
func survive(vids []int32, qsets []uint64, qw, i, n int) int {
	tw := qsets[i*qw:][:qw]
	for _, x := range tw {
		if x != 0 {
			if n != i {
				vids[n] = vids[i]
				copy(qsets[n*qw:][:qw], tw)
			}
			return n + 1
		}
	}
	return n
}

// pruneWalk is PruneVec through the chains of state st's index ki. Tuples
// move as the walk goes, but survive only writes at or below the tuple it
// keeps, so every tuple's vID and words are still at its own position when
// its turn comes.
func (s *STeM) pruneWalk(st *stemState, ki int, vids []int32, qsets []uint64, qw int, elig bitset.Set, lo, hi int, keys []int64, acc []uint64) int {
	elig, acc = elig[lo:hi], acc[:hi-lo]
	wm := s.versions.Watermark()
	buckets := st.buckets[ki]
	shift := st.shift[ki]
	var heads [probeBlock]int32
	var eKey [probeBlock]int64
	var eNext [probeBlock]int32
	var eSlot [probeBlock]Slot
	var eQ [probeBlock]uint64
	n := 0
	for i0 := 0; i0 < len(vids); i0 += probeBlock {
		m := min(len(vids)-i0, probeBlock)
		// Load the bucket heads of the tuples that carry an eligible bit. A
		// tuple with no chain to walk (NULL key, empty bucket) has no match:
		// its eligible bits go now.
		for j := 0; j < m; j++ {
			t := qsets[(i0+j)*qw+lo:][:len(elig)]
			var has uint64
			for w, e := range elig {
				has |= t[w] & e
			}
			heads[j] = 0
			if has == 0 {
				continue
			}
			if k := keys[vids[i0+j]]; k != NullKey {
				heads[j] = buckets[hash64(k)>>shift].Load()
			}
			if heads[j] == 0 {
				for w, e := range elig {
					t[w] &^= e
				}
			}
		}
		// Chunk snapshot after the head loads, and the head entries' fields
		// staged in one branch-light pass, as in walkChains. Staging the
		// first query-set word too overlaps the misses on the entries' sets.
		chunks := *st.chunks.Load()
		for j := 0; j < m; j++ {
			if ref := heads[j]; ref != 0 {
				idx := int(ref) - 1
				c := chunks[idx>>chunkBits]
				off := idx & chunkMask
				eKey[j] = c.keys[ki][off]
				eNext[j] = c.next[ki][off]
				eSlot[j] = c.slots[off]
				eQ[j] = atomic.LoadUint64(&c.qsets[off*s.qw+lo])
			}
		}
		for j := 0; j < m; j++ {
			if ref := heads[j]; ref != 0 {
				key := keys[vids[i0+j]]
				t := qsets[(i0+j)*qw+lo:][:len(elig)]
				// acc starts as the head entry's words (assigned, which spares
				// a clear on the common path) and ORs in the rest of the chain.
				if eKey[j] == key && (eSlot[j] < wm || s.versions.tryGet(eSlot[j]) != 0) {
					idx := int(ref) - 1
					qs := chunks[idx>>chunkBits].qsets[(idx&chunkMask)*s.qw+lo:][:len(acc)]
					acc[0] = eQ[j]
					for w := 1; w < len(acc); w++ {
						acc[w] = atomic.LoadUint64(&qs[w])
					}
				} else {
					clear(acc)
				}
				for ref = eNext[j]; ref != 0; {
					idx := int(ref) - 1
					c := chunks[idx>>chunkBits]
					off := idx & chunkMask
					if c.keys[ki][off] == key && (c.slots[off] < wm || s.versions.tryGet(c.slots[off]) != 0) {
						qs := c.qsets[off*s.qw+lo:][:len(acc)]
						for w := range acc {
							acc[w] |= atomic.LoadUint64(&qs[w])
						}
					}
					ref = c.next[ki][off]
				}
				for w, e := range elig {
					t[w] &= acc[w] | ^e
				}
			}
			n = survive(vids, qsets, qw, i0+j, n)
		}
	}
	return n
}

// unionTable is a STeM's snapshot of one index, answering a prune or a
// probe with one slot read per key instead of a chain walk: a map from each
// distinct non-NULL key to the OR of its entries' query sets (its union) and
// to the entries themselves. A key with one entry keeps its vID in its slot;
// a key with more keeps its entries' vIDs and words (qw per entry)
// contiguous in vids and words, newest first. On a one-word table the union
// word sits in the slot; on a wider one the slot locates the key's qw union
// words in us, whose first qw words stay zero for the empty slot. An empty
// slot (no entries) therefore reads the empty union.
//
// The table has one of two layouts, picked per build (buildUnion). A direct
// table has one slot per key of its keys' range, slot key − base; a key
// outside the range, NULL included, reads none, an empty slot of its own.
// A hashed table is open-addressed, with qat.HashTable's one-multiply hash,
// and at most half full; a NULL key, which no slot holds, stops at the first
// empty slot.
//
// A table holds every entry committed when it was built, zero-word entries
// included (a probe returns them), each published: maxTS is the newest of
// their publication timestamps. It is immutable once built and is valid for
// the state it is cached on only while the state's committed count and the
// STeM's sweep generation still equal its stamps: a commit adds entries the
// table lacks, and a sweep clears bits the table still holds.
type unionTable struct {
	slots     []unionSlot
	direct    bool
	base      int64 // direct: the key of slots[0]
	shift     uint  // hashed: 64 − log2(len(slots))
	none      unionSlot
	qw        int
	us        []uint64
	vids      []int32
	words     []uint64
	maxTS     int64
	committed int64
	sweepGen  uint64
}

// unionSlot is one key of a unionTable. u is the key's union word on a
// one-word table, else the offset of its union words in the table's us;
// vid is the sole entry's vID when n is 1, else where its n entries start
// in the table's vids (and, times qw, in its words).
type unionSlot struct {
	key int64
	u   uint64
	vid int32
	n   int32
}

// unionCache is one index's union-table cache on a stemState. blocked is
// 1 + the slot of the unpublished entry that stopped the last failed build
// (0 if none): the entry stays in the state, so no build can succeed before
// that slot is published, and calls do not rescan until it is. walked
// counts the keys probes walked since the last build (see union).
type unionCache struct {
	table   atomic.Pointer[unionTable]
	blocked atomic.Int32
	walked  atomic.Int64
}

// directSpan bounds a direct table: a build takes the direct layout when
// its keys' range is at most directSpan times the slots a hashed table of
// the same keys would start with. Dense keys (a dimension's 0..n-1, of
// which a selective query's STeM holds a fraction) then cost one bounds
// check per lookup instead of a probe sequence, at a few times the slots.
const directSpan = 8

// newUnionTable returns an empty table of n slots over qw query-set words,
// direct from base when direct, else hashed (n a power of two), with room
// for the union words of keys keys.
func newUnionTable(n int, direct bool, base int64, qw, keys int) *unionTable {
	t := &unionTable{direct: direct, base: base, qw: qw}
	t.resize(n)
	if qw > 1 {
		t.us = make([]uint64, qw, (keys+1)*qw)
	}
	return t
}

// resize replaces t's slots with n empty ones.
func (t *unionTable) resize(n int) {
	t.slots = make([]unionSlot, n)
	if !t.direct {
		t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	}
}

// slot returns key's slot: the one holding it, or an empty one (n == 0):
// on a direct table the key's own or, outside the range, none; on a hashed
// one where its probe sequence ends. The direct index is exact in wrapping
// arithmetic: key − base maps the range onto [0, len(slots)) and every
// other key outside it.
func (t *unionTable) slot(key int64) *unionSlot {
	if t.direct {
		if i := uint64(key - t.base); i < uint64(len(t.slots)) {
			return &t.slots[i]
		}
		return &t.none
	}
	mask := uint64(len(t.slots) - 1)
	for i := (uint64(key) * 0x9E3779B97F4A7C15) >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.key == key || s.n == 0 {
			return s
		}
	}
}

// word returns word w of slot e's union.
func (t *unionTable) word(e *unionSlot, w int) uint64 {
	if t.qw == 1 {
		return e.u
	}
	return t.us[int(e.u)+w]
}

// probe is ProbeVecRange served from t. A one-word range takes
// probeWord, as a one-word prune takes its own loop in PruneVec: in the
// kernel benchmarks the general loop below, reading the one-word union
// through word, spent about 1.5 ns per key more on one-word tables.
func (t *unionTable) probe(dst []VecMatch, qout []uint64, p *Probe, lo, hi int) ([]VecMatch, []uint64, int) {
	if hi-lo == 1 {
		return t.probeWord(dst, qout, p, lo)
	}
	nw := hi - lo
	masked, mask := p.Qsets != nil, p.Mask
	probed := 0
	for i, vid := range p.VIDs {
		var tw []uint64
		if masked {
			if tw = p.words(i, nw); !bitset.Intersects(tw, mask) {
				continue
			}
		}
		probed++
		e := t.slot(p.Keys[vid])
		if e.n == 0 {
			continue
		}
		u := t.us[int(e.u)+lo:][:nw]
		if masked && !intersects3(tw, mask, u) {
			continue
		}
		if e.n == 1 { // a sole entry's words are its key's union
			if !masked {
				qout = append(qout, u...)
			} else {
				for w, x := range tw {
					qout = append(qout, x&mask[w]&u[w])
				}
			}
			dst = append(dst, VecMatch{In: int32(i), VID: e.vid})
			continue
		}
		for j := int(e.vid); j < int(e.vid+e.n); j++ {
			n := len(qout)
			qout = append(qout, t.words[j*t.qw+lo:][:nw]...)
			dst, qout = keep(dst, qout, n, tw, mask, int32(i), t.vids[j])
		}
	}
	return dst, qout, probed
}

// intersects3 reports whether a ∧ b ∧ c has a bit, the three of one length.
func intersects3(a, b, c []uint64) bool {
	for w, x := range a {
		if x&b[w]&c[w] != 0 {
			return true
		}
	}
	return false
}

// probeWord is probe over the one word w, the range of every one-word
// table.
func (t *unionTable) probeWord(dst []VecMatch, qout []uint64, p *Probe, w int) ([]VecMatch, []uint64, int) {
	masked := p.Qsets != nil
	var mask uint64
	if masked {
		mask = p.Mask[0]
	}
	probed := 0
	for i, vid := range p.VIDs {
		m := ^uint64(0)
		if masked {
			if m = p.Qsets[i*p.Stride+p.Off] & mask; m == 0 {
				continue
			}
		}
		probed++
		e := t.slot(p.Keys[vid])
		if e.n == 0 {
			continue
		}
		u := t.word(e, w)
		if masked && m&u == 0 {
			continue
		}
		if e.n == 1 {
			dst = append(dst, VecMatch{In: int32(i), VID: e.vid})
			qout = append(qout, m&u)
			continue
		}
		for j := e.vid; j < e.vid+e.n; j++ {
			if x := m & t.words[int(j)*t.qw+w]; x != 0 || !masked {
				dst = append(dst, VecMatch{In: int32(i), VID: t.vids[j]})
				qout = append(qout, x)
			}
		}
	}
	return dst, qout, probed
}

// cachedUnion returns index ki's cached union table on state st when it is
// current, else nil, with the committed count and sweep generation it was
// checked against.
func (s *STeM) cachedUnion(st *stemState, ki int) (*unionTable, int64, uint64) {
	gen := s.sweepGen.Load()
	c := st.committed.Load()
	if t := st.unions[ki].table.Load(); t != nil && t.committed == c && t.sweepGen == gen {
		return t, c, gen
	}
	return nil, c, gen
}

// union returns index ki's union table on state st when the cached one
// (cachedUnion) is missing or stale at committed count c and sweep
// generation gen, building and caching it, or nil when the caller must
// walk the chains: while an insert is in flight (count ahead of committed),
// since inserts commit out of order and an entry under committed may still
// be unwritten; or when a non-NULL entry is unpublished, since its
// publication would move no stamp. A table whose stamps moved during the
// build still serves this call — it holds every entry committed and
// published when the call began — but is not cached.
//
// walk is what the caller walks when no table serves it, in query-set
// words: the keys it probes times the words of its range. A prune passes 0
// and builds at once: it runs against a STeM that no insert changes any more.
// A probe's STeM may be growing under it, as both sides of a symmetric
// join insert and probe, and a build per change would cost O(entries) per
// call. So a probe builds only once the words walked since the last build
// reach buildRent times the words a build reads, qw per entry: builds then
// read at most 1/buildRent of the words walked. Counting words, not keys,
// keeps a probe over a few words of a wide STeM from paying for builds
// that read every word of every entry.
func (s *STeM) union(st *stemState, ki int, c int64, gen uint64, walk int) *unionTable {
	uc := &st.unions[ki]
	if walk > 0 && uc.walked.Add(int64(walk)) < s.buildRent*c*int64(s.qw) {
		return nil
	}
	if s.count.Load() != c {
		return nil
	}
	if b := uc.blocked.Load(); b != 0 && s.versions.tryGet(Slot(b-1)) == 0 {
		return nil
	}
	uc.walked.Store(0)
	t := s.buildUnion(st, ki, int(c))
	if t == nil {
		return nil
	}
	t.committed, t.sweepGen = c, gen
	if st.committed.Load() == c && s.sweepGen.Load() == gen {
		uc.table.Store(t)
	}
	return t
}

// buildUnion builds index ki's union table over the first c entries of
// state st, which must all be written, or returns nil and records the
// blocking slot when one of them with a non-NULL key is unpublished. A first
// pass over the keys checks publication and reads the keys' range, which
// picks the layout (directSpan); a second indexes the entries.
func (s *STeM) buildUnion(st *stemState, ki, c int) *unionTable {
	chunks := *st.chunks.Load()
	var maxTS int64
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	last := Slot(-1) // a batch's entries share a slot: look each up once
	for idx := 0; idx < c; idx++ {
		ch := chunks[idx>>chunkBits]
		off := idx & chunkMask
		k := ch.keys[ki][off]
		if k == NullKey {
			continue // unreachable by any probe, contributes to no union
		}
		if slot := ch.slots[off]; slot != last {
			ts := s.versions.tryGet(slot)
			if ts == 0 {
				s.unionScans.Add(int64(idx + 1))
				st.unions[ki].blocked.Store(int32(slot) + 1)
				return nil
			}
			last, maxTS = slot, max(maxTS, ts)
		}
		lo, hi = min(lo, k), max(hi, k)
	}
	// Size a hashed table from the index's occupied buckets: each key lands
	// in one, so they are at most the keys and, at the load factor
	// EnsureBuckets keeps, most of them, and a table for twice as many
	// seldom grows. Sizing from the entries would overshoot by a fact
	// table's fan-out. Buckets sized for a relation's rows can outnumber
	// the entries many times over, so at most as many buckets as entries
	// (64 at least) are counted and the rest extrapolated: the hash spreads
	// keys evenly, and an estimate that falls short only grows the table.
	buckets := st.buckets[ki]
	scan := min(len(buckets), max(c, 64))
	occupied := 0
	for i := range buckets[:scan] {
		if buckets[i].Load() != 0 {
			occupied++
		}
	}
	occupied = occupied * len(buckets) / scan
	size := 1
	for size < 2*occupied {
		size <<= 1
	}
	// The range is hi − lo + 1 keys. hi − lo is computed in uint64, where
	// it is exact for any two int64s (lo <= hi), so keys spread across the
	// int64 range cannot wrap it into a small one. No key at all leaves a
	// direct table of no slots.
	qw := s.qw
	var t *unionTable
	switch span := uint64(hi) - uint64(lo); {
	case lo > hi:
		t = newUnionTable(0, true, 0, qw, 0)
	case span < directSpan*uint64(size):
		t = newUnionTable(int(span)+1, true, lo, qw, min(int(span)+1, occupied))
	default:
		t = newUnionTable(size, false, 0, qw, occupied)
	}
	keys, multi := 0, 0
	for idx := 0; idx < c; idx++ {
		ch := chunks[idx>>chunkBits]
		off := idx & chunkMask
		k := ch.keys[ki][off]
		if k == NullKey {
			continue
		}
		e := t.slot(k)
		if e.n == 0 {
			if !t.direct && 2*(keys+1) > len(t.slots) {
				t.grow()
				e = t.slot(k)
			}
			e.key, e.vid = k, ch.vids[off]
			if qw > 1 {
				e.u = uint64(len(t.us))
				t.us = append(t.us, make([]uint64, qw)...)
			}
			keys++
		} else if e.n == 1 {
			multi += 2
		} else {
			multi++
		}
		e.n++
		if qw == 1 {
			e.u |= atomic.LoadUint64(&ch.qsets[off])
		} else {
			u, qs := t.us[int(e.u):][:qw], ch.qsets[off*qw:][:qw]
			for w := range u {
				u[w] |= atomic.LoadUint64(&qs[w])
			}
		}
	}
	s.unionScans.Add(int64(c))
	t.maxTS = maxTS
	if multi > 0 {
		t.fillMulti(chunks, ki, c, multi)
	}
	return t
}

// fillMulti lays out the entries of every key with more than one entry,
// multi of them in all, contiguously in t.vids and t.words: each key's run
// is reserved by its end, filled backwards by an ascending scan (so newest
// first, the order rebuilt chains walk) and left pointing at its start.
func (t *unionTable) fillMulti(chunks []*chunk, ki, c, multi int) {
	qw := t.qw
	t.vids, t.words = make([]int32, multi), make([]uint64, multi*qw)
	end := int32(0)
	for i := range t.slots {
		if e := &t.slots[i]; e.n > 1 {
			end += e.n
			e.vid = end
		}
	}
	for idx := 0; idx < c; idx++ {
		ch := chunks[idx>>chunkBits]
		off := idx & chunkMask
		k := ch.keys[ki][off]
		if k == NullKey {
			continue
		}
		if e := t.slot(k); e.n > 1 {
			e.vid--
			t.vids[e.vid] = ch.vids[off]
			ws, qs := t.words[int(e.vid)*qw:][:qw], ch.qsets[off*qw:][:qw]
			for w := range ws {
				ws[w] = atomic.LoadUint64(&qs[w])
			}
		}
	}
}

// grow doubles a hashed table's slots, rehashing every key's slot into
// them; the union words and side arrays the slots point at stay where they
// are.
func (t *unionTable) grow() {
	old := t.slots
	t.resize(2 * len(old))
	for _, e := range old {
		if e.n != 0 {
			*t.slot(e.key) = e
		}
	}
}

// bytes is the table's resident size for EstBytes: 24-byte slots, the
// union words of a wider table, and a vID and qw words per side-array
// entry.
func (t *unionTable) bytes() int64 {
	return int64(len(t.slots))*24 + int64(len(t.us)+len(t.words))*8 + int64(len(t.vids))*4
}
