package stem

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/roulette-db/roulette/internal/bitset"
)

// oracleEntry and oracle are the brute-force model the kernels are checked
// against: every inserted entry listed under its key, once per key column,
// with the stamp its insert returned.
type oracleEntry struct {
	vid   int32
	stamp int64
	qset  []uint64
}

type oracle struct {
	byKey []map[int64][]oracleEntry
}

func newOracle(nCols int) *oracle {
	o := &oracle{byKey: make([]map[int64][]oracleEntry, nCols)}
	for c := range o.byKey {
		o.byKey[c] = map[int64][]oracleEntry{}
	}
	return o
}

// insert mirrors InsertVec's arguments and the stamp it returned (qw must
// be the STeM's width).
func (o *oracle) insert(vids []int32, keyCols [][]int64, qsets []uint64, qw int, stamp int64) {
	for i, vid := range vids {
		e := oracleEntry{vid, stamp, qsets[i*qw : (i+1)*qw]}
		for c, m := range o.byKey {
			m[keyCols[c][i]] = append(m[keyCols[c][i]], e)
		}
	}
}

// probe is probeVec's contract, canonicalized like canonVec: entries with
// an equal, non-NULL key stamped strictly before probeTS.
func (o *oracle) probe(ki int, keys []int64, probeTS int64) []string {
	var out []string
	for in, k := range keys {
		if k == NullKey {
			continue
		}
		for _, e := range o.byKey[ki][k] {
			if e.stamp < probeTS {
				out = append(out, fmt.Sprintf("%d|%d|%v", in, e.vid, e.qset))
			}
		}
	}
	sort.Strings(out)
	return out
}

// probeMasked is ProbeVecRange's contract, canonicalized like canonVec:
// for each tuple of p, keyed through its vID, probe's matches over words
// [lo, hi), each intersected with the tuple's words under p's mask and kept
// only when that leaves a bit; unmasked (nil Qsets), every match with its
// own words over [lo, hi). It also returns how many tuples probe: those
// with a bit under the mask, NULL-keyed ones included.
func (o *oracle) probeMasked(ki int, p Probe, probeTS int64, lo, hi int) ([]string, int) {
	nw := hi - lo
	var out []string
	probed := 0
	for in, vid := range p.VIDs {
		var tq []uint64
		if p.Qsets != nil {
			tq = make([]uint64, nw)
			var any uint64
			for w := range tq {
				tq[w] = p.Qsets[in*p.Stride+p.Off+w] & p.Mask[w]
				any |= tq[w]
			}
			if any == 0 {
				continue
			}
		}
		probed++
		k := p.Keys[vid]
		if k == NullKey {
			continue
		}
		for _, e := range o.byKey[ki][k] {
			if e.stamp >= probeTS {
				continue
			}
			q := append([]uint64(nil), e.qset[lo:hi]...)
			var any uint64
			for w := range q {
				if tq != nil {
					q[w] &= tq[w]
				}
				any |= q[w]
			}
			if tq == nil || any != 0 {
				out = append(out, fmt.Sprintf("%d|%d|%v", in, e.vid, q))
			}
		}
	}
	sort.Strings(out)
	return out, probed
}

// prune is PruneVec's contract for one tuple t probing key: over words
// [lo, hi), t[w] & (u[w] | ^elig[w]), u the union of the query sets of the
// key's entries, whatever their stamps (empty for NULL); other words
// unchanged.
func (o *oracle) prune(ki int, key int64, t, elig []uint64, lo, hi int) []uint64 {
	u := make([]uint64, len(t))
	if key != NullKey {
		for _, e := range o.byKey[ki][key] {
			for w := range u {
				u[w] |= e.qset[w]
			}
		}
	}
	out := append([]uint64(nil), t...)
	for w := lo; w < hi; w++ {
		out[w] &= u[w] | ^elig[w]
	}
	return out
}

// randomPrune draws a PruneVec input over qw-word query sets: a random
// word range [lo, hi), an eligible set with random bits, each word full one
// time in three, so a tuple whose key matches nothing loses its whole span
// there, and a tuple slab for keys with random bits, one tuple in four with
// none outside the range, so that it can empty entirely.
func randomPrune(rng *rand.Rand, keys []int64, qw int) (tuples, elig []uint64, lo, hi int) {
	lo = rng.Intn(qw + 1)
	hi = lo + rng.Intn(qw-lo+1)
	elig = make([]uint64, qw)
	for w := range elig {
		elig[w] = rng.Uint64()
		if rng.Intn(3) == 0 {
			elig[w] = ^uint64(0)
		}
	}
	tuples = make([]uint64, len(keys)*qw)
	for i := range keys {
		inner := rng.Intn(4) == 0
		for w := 0; w < qw; w++ {
			if !inner || lo <= w && w < hi {
				tuples[i*qw+w] = rng.Uint64() & rng.Uint64()
			}
		}
	}
	return tuples, elig, lo, hi
}

// pruneCases counts, among the tuples of a PruneVec input, those the
// oracle leaves with a set span emptied but a bit outside it (they must
// survive) and those it empties entirely (they must drop).
func pruneCases(o *oracle, ki int, keys []int64, tuples, elig []uint64, lo, hi, qw int) (spanOnly, emptied int) {
	for i, k := range keys {
		in := bitset.Set(tuples[i*qw : (i+1)*qw])
		out := bitset.Set(o.prune(ki, k, in, elig, lo, hi))
		switch {
		case in.Empty():
		case out.Empty():
			emptied++
		case lo < hi && !in[lo:hi].Empty() && out[lo:hi].Empty():
			spanOnly++
		}
	}
	return spanOnly, emptied
}

// checkPrune runs PruneVec over a fresh random input and compares every
// tuple with the oracle.
func checkPrune(t *testing.T, rng *rand.Rand, s *STeM, o *oracle, ki int, col string, keys []int64) bool {
	tuples, elig, lo, hi := randomPrune(rng, keys, s.qw)
	return checkPruneInput(t, s, o, ki, col, keys, tuples, elig, lo, hi)
}

// checkPruneInput runs PruneVec over the given input and compares every
// tuple with the oracle.
func checkPruneInput(t *testing.T, s *STeM, o *oracle, ki int, col string, keys []int64, tuples, elig []uint64, lo, hi int) bool {
	qw := s.qw
	orig := append([]uint64(nil), tuples...)
	pruneTuples(t, s, tuples, qw, elig, lo, hi, col, keys, make([]uint64, qw))
	for i, k := range keys {
		want := o.prune(ki, k, orig[i*qw:(i+1)*qw], elig, lo, hi)
		if got := tuples[i*qw : (i+1)*qw]; !reflect.DeepEqual(got, want) {
			t.Logf("col %s key %d words [%d,%d): PruneVec = %x, want %x", col, k, lo, hi, got, want)
			return false
		}
	}
	return !t.Failed()
}

// pruneTuples runs PruneVec over tuples, tuple i keyed by keys[i], and
// leaves tuples as the kernel would have left them without compacting
// (expandPruned).
func pruneTuples(t testing.TB, s *STeM, tuples []uint64, qw int, elig bitset.Set, lo, hi int, col string, keys []int64, acc []uint64) {
	expandPruned(t, tuples, qw, keys, func(vids []int32, keyCol []int64) int {
		return s.PruneVec(vids, tuples, qw, elig, lo, hi, col, keyCol, acc)
	})
}

// expandPruned calls run, a prune kernel over the slab tuples, with tuple i
// as vID 2i+1 of a key column holding keys[i] there and NULL at every even
// row, so a kernel that reads a key by anything but its tuple's vID misses
// it. It then checks the kernel's compaction, survivors in order and none
// empty, and writes them back to their own positions, zeroing the dropped
// tuples: tuples ends as the masked slab before compaction.
func expandPruned(t testing.TB, tuples []uint64, qw int, keys []int64, run func(vids []int32, keyCol []int64) int) {
	vids := make([]int32, len(keys))
	keyCol := make([]int64, 2*len(keys))
	for i, k := range keys {
		vids[i] = int32(2*i + 1)
		keyCol[2*i], keyCol[2*i+1] = NullKey, k
	}
	n := run(vids, keyCol)
	out := make([]uint64, len(tuples))
	for j, vid := range vids[:n] {
		w := bitset.Set(tuples[j*qw : (j+1)*qw])
		if j > 0 && vid <= vids[j-1] || vid%2 != 1 || w.Empty() {
			t.Errorf("prune kept vID %d at %d of %d (after %d) with words %x: survivors must keep their order and a bit", vid, j, n, vids[max(j-1, 0)], []uint64(w))
			return
		}
		copy(out[int(vid/2)*qw:], w)
	}
	copy(tuples, out)
}

// tablesOf returns index ki's table list.
func tablesOf(s *STeM, ki int) []*unionTable {
	return *s.state.Load().index[ki].tables.Load()
}

// indexed reports whether index ki's tables hold every recorded entry, so
// that the next probe or prune reads them as they stand.
func indexed(s *STeM, ki int) bool {
	return s.state.Load().index[ki].built.Load() == s.logged.Load()
}

// allSeen reports whether a probe at probeTS reads every table of index ki
// as it stands, without checking an entry's stamp.
func allSeen(s *STeM, ki int, probeTS int64) bool {
	for _, t := range tablesOf(s, ki) {
		if !t.seen(probeTS) {
			return false
		}
	}
	return true
}

// tableServes reports whether index ki of s is one table, holding every
// recorded entry, that a probe at probeTS reads as it stands, without
// checking an entry's stamp. Checked right after a probe, it tells whether
// that probe took the one-table loops (unionTable.probe).
func tableServes(s *STeM, ki int, probeTS int64) bool {
	ts := tablesOf(s, ki)
	return indexed(s, ki) && len(ts) == 1 && ts[0].seen(probeTS)
}

// match is a probe match with its query-set words, as the tests compare
// them.
type match struct {
	In, VID int32
	QSet    bitset.Set
}

// matches pairs the kernel's matches with their nw words each in qbuf.
func matches(ms []VecMatch, qbuf []uint64, nw int) []match {
	var out []match
	for k, m := range ms {
		out = append(out, match{m.In, m.VID, bitset.Set(qbuf[k*nw : (k+1)*nw])})
	}
	return out
}

// keyProbe is the probing vector of a plain key list: tuple i keyed by
// keys[i], with its nw words at tq[i*nw:] under a full mask, or unmasked
// when tq is nil.
func keyProbe(keys []int64, tq []uint64, nw int) Probe {
	p := Probe{Keys: keys, VIDs: identity(len(keys))}
	if tq != nil {
		p.Qsets, p.Stride, p.Mask = tq, nw, make([]uint64, nw)
		for w := range p.Mask {
			p.Mask[w] = ^uint64(0)
		}
	}
	return p
}

// slabProbe lays keys out as the executor's vectors are: tuple i is vID
// 2i+1 of a key column holding keys[i] there and NULL at every even row,
// so a kernel that reads a key by anything but its tuple's vID misses it,
// and its nw words for the probe's range start off words into a stride-word
// slot of a random slab. The mask is random too, and about a quarter of
// the tuples have no bit under it.
func slabProbe(rng *rand.Rand, keys []int64, nw, stride, off int) Probe {
	p := Probe{
		Keys:   make([]int64, 2*len(keys)),
		VIDs:   make([]int32, len(keys)),
		Qsets:  make([]uint64, len(keys)*stride),
		Stride: stride, Off: off,
		Mask: make([]uint64, nw),
	}
	for i, k := range keys {
		p.VIDs[i] = int32(2*i + 1)
		p.Keys[2*i], p.Keys[2*i+1] = NullKey, k
	}
	for w := range p.Mask {
		p.Mask[w] = rng.Uint64() | rng.Uint64()
	}
	for i := range keys {
		tw := p.Qsets[i*stride:][:stride]
		for w := range tw {
			tw[w] = rng.Uint64() & rng.Uint64()
		}
		if rng.Intn(4) == 0 { // no bit under the mask, outside it some
			for w := range nw {
				tw[off+w] &^= p.Mask[w]
			}
		}
	}
	return p
}

// checkSlab runs ProbeVecRange over p and compares its matches, their
// words and its probed count with the oracle's, and checks that the
// matches come in tuple order. The kernel appends: it gets non-empty
// buffers whose spare capacity holds junk, and the content they came with
// must stay in place, the matches' words starting right after it.
func checkSlab(t *testing.T, s *STeM, o *oracle, ki int, col string, p Probe, ts int64, lo, hi int) bool {
	want, wantN := o.probeMasked(ki, p, ts, lo, hi)
	spare := int(ts % 5)
	dst := make([]VecMatch, 3+spare)
	qout := make([]uint64, 5+spare*(hi-lo))
	for k := range dst {
		dst[k] = VecMatch{In: -1 - int32(k), VID: 7 + int32(k)}
	}
	for k := range qout {
		qout[k] = 0xdead0000 + uint64(k)
	}
	pre, qpre := slices.Clone(dst[:3]), slices.Clone(qout[:5])
	out, qbuf, n := s.ProbeVecRange(dst[:3], qout[:5], col, p, ts, lo, hi)
	if !slices.Equal(out[:3], pre) || !slices.Equal(qbuf[:5], qpre) || len(qbuf)-5 != (len(out)-3)*(hi-lo) {
		t.Logf("col %s: ProbeVecRange (words [%d,%d)) overwrote the matches or words it was passed, or returned %d words for %d matches", col, lo, hi, len(qbuf)-5, len(out)-3)
		return false
	}
	ms := matches(out[3:], qbuf[5:], hi-lo)
	if got := canonVec(ms); !reflect.DeepEqual(got, want) || n != wantN {
		t.Logf("col %s: ProbeVecRange (ts=%d words [%d,%d) masked %t stride %d off %d) found %d matches probing %d tuples, oracle %d probing %d",
			col, ts, lo, hi, p.Qsets != nil, p.Stride, p.Off, len(got), n, len(want), wantN)
		return false
	}
	for k := 1; k < len(ms); k++ {
		if ms[k].In < ms[k-1].In {
			t.Logf("col %s: ProbeVecRange returned tuple %d after tuple %d", col, ms[k].In, ms[k-1].In)
			return false
		}
	}
	return true
}

// checkProbe probes keys unmasked over every word (probeVec) and compares
// the matches with the oracle's. It then does the same for ProbeVecRange
// over a random word range, unmasked and over a slab of random words,
// stride and offset (checkSlab).
func checkProbe(t *testing.T, s *STeM, o *oracle, ki int, col string, keys []int64, ts int64) bool {
	want := o.probe(ki, keys, ts)
	if got := canonVec(probeVec(s, col, keys, ts)); !reflect.DeepEqual(got, want) {
		t.Logf("col %s: probe at ts %d found %d matches, oracle %d", col, ts, len(got), len(want))
		return false
	}
	rng := rand.New(rand.NewSource(ts))
	lo := rng.Intn(s.qw)
	hi := lo + 1 + rng.Intn(s.qw-lo)
	nw := hi - lo
	stride := nw + rng.Intn(3)
	slab := slabProbe(rng, keys, nw, stride, rng.Intn(stride-nw+1))
	for _, p := range []Probe{keyProbe(keys, nil, nw), slab} {
		if !checkSlab(t, s, o, ki, col, p, ts, lo, hi) {
			return false
		}
	}
	return true
}

// sweepAll clears the retired bits from every entry of s, as the engine's
// GC pass does, and from the oracle.
func sweepAll(s *STeM, o *oracle, retired bitset.Set) {
	s.SweepIndex(retired)
	for _, m := range o.byKey {
		for _, es := range m {
			for _, e := range es {
				bitset.Set(e.qset).AndNotWith(retired)
			}
		}
	}
}

// probeVec probes keys at ts, unmasked over every word, with fresh buffers
// (production callers reuse worker arenas).
func probeVec(s *STeM, col string, keys []int64, ts int64) []match {
	ms, qbuf, _ := s.ProbeVecRange(nil, nil, col, keyProbe(keys, nil, s.qw), ts, 0, s.qw)
	return matches(ms, qbuf, s.qw)
}

// probeVecCount returns the number of probeVec matches.
func probeVecCount(s *STeM, col string, keys []int64, ts int64) int {
	return len(probeVec(s, col, keys, ts))
}

// canonVec renders matches as a sorted multiset of "in|vid|qset" strings:
// the order of a key's entries is unspecified, so only the match *sets* are
// comparable.
func canonVec(ms []match) []string {
	var out []string
	for _, m := range ms {
		out = append(out, fmt.Sprintf("%d|%d|%v", m.In, m.VID, []uint64(m.QSet)))
	}
	sort.Strings(out)
	return out
}

// TestQuickVecMatchesOracle is the randomized equivalence property: a STeM
// built with InsertVec (random batch sizes, random key skew, query sets of
// one, two or five words, NULL keys and empty query sets on the build side)
// must agree with the brute-force oracle on every probe — at a fresh
// timestamp, at the last batch's own stamp, as its episode probes, and at
// one drawn mid-build, NULL and missing probe keys included, and in
// ProbeVecRange's masked form — and on every prune over a random word
// range, again once more after a sweep. The first probe builds one table
// over every batch, so the probes at older timestamps read it entry by
// entry.
func TestQuickVecMatchesOracle(t *testing.T) {
	f := func(seed int64, skewRaw, qcapRaw uint8, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%1500 + 1
		domain := int64(1) << (uint(skewRaw) % 8) // 1..128 distinct keys
		// One, two or five query-set words.
		qcap := 64*[]int{0, 1, 4}[int(qcapRaw)%3] + int(qcapRaw)%64 + 1

		v := NewVersions()
		cols := []string{"a", "b"}
		s := New(v, cols, qcap, n)
		o := newOracle(len(cols))
		qw := s.qw

		key := func() int64 {
			if rng.Intn(16) == 0 {
				return NullKey
			}
			return rng.Int63n(domain)
		}
		vids := make([]int32, n)
		ka := make([]int64, n)
		kb := make([]int64, n)
		qsets := make([]uint64, n*qw)
		for i := range vids {
			vids[i] = int32(i)
			ka[i], kb[i] = key(), key()
			if rng.Intn(8) != 0 { // else an entry every query has left
				qsets[i*qw+rng.Intn(qw)] = 1 << uint(rng.Intn(64))
			}
		}

		// Random batch split, one stamp per batch. One timestamp is drawn
		// mid-build and probed after the build: it must see exactly the
		// batches stamped before it.
		var snaps []int64
		var stamp int64
		for i0 := 0; i0 < n; {
			bn := 1 + rng.Intn(200)
			if i0+bn > n {
				bn = n - i0
			}
			batchKeys := [][]int64{ka[i0 : i0+bn], kb[i0 : i0+bn]}
			stamp = s.InsertVec(vids[i0:i0+bn], batchKeys, qsets[i0*qw:(i0+bn)*qw], qw, 0, nil)
			o.insert(vids[i0:i0+bn], batchKeys, qsets[i0*qw:(i0+bn)*qw], qw, stamp)
			if len(snaps) == 0 && rng.Intn(4) == 0 {
				snaps = append(snaps, v.Now())
			}
			i0 += bn
		}
		snaps = append(snaps, stamp, v.Now())

		probeKeys := []int64{NullKey}
		for k := int64(0); k <= domain; k++ { // domain itself = guaranteed miss
			probeKeys = append(probeKeys, k)
		}
		for ci, col := range cols {
			for _, ts := range snaps {
				if !checkProbe(t, s, o, ci, col, probeKeys, ts) {
					return false
				}
			}
			if !checkPrune(t, rng, s, o, ci, col, probeKeys) {
				return false
			}
		}
		// A sweep must take the swept bits out of the next answers. A probe
		// at the first older timestamp must still see only what was stamped
		// before it.
		retired := make(bitset.Set, qw)
		for w := range retired {
			retired[w] = rng.Uint64() & rng.Uint64()
		}
		for round := 0; round < 2; round++ {
			if round == 1 {
				sweepAll(s, o, retired)
			}
			for ci, col := range cols {
				for iter := 0; iter < 4; iter++ {
					if !checkPrune(t, rng, s, o, ci, col, probeKeys) {
						t.Logf("round %d: prune diverged", round)
						return false
					}
				}
				for _, ts := range []int64{snaps[0], v.Now()} {
					if !checkProbe(t, s, o, ci, col, probeKeys, ts) {
						t.Logf("round %d: probe diverged", round)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertVecWidthsAndChunks covers the directed edge cases: empty batch,
// query-set slabs narrower and wider than the STeM's width, and one batch
// spanning multiple chunks.
func TestInsertVecWidthsAndChunks(t *testing.T) {
	v := NewVersions()
	s := New(v, []string{"k"}, 100, 16) // qw = 2

	if stamp := s.InsertVec(nil, [][]int64{nil}, nil, 2, 0, nil); stamp != 0 || s.Len() != 0 || v.Frontier() != 0 {
		t.Fatalf("empty InsertVec returned stamp %d, changed Len to %d or ticked the clock to %d", stamp, s.Len(), v.Frontier())
	}

	// Narrow slab (qw 1 into width 2): the missing high word zero-fills.
	s.InsertVec([]int32{1}, [][]int64{{7}}, []uint64{1 << 3}, 1, 0, nil)
	// Wide slab (qw 3 into width 2): the extra word is dropped.
	s.InsertVec([]int32{2}, [][]int64{{8}}, []uint64{1 << 4, 1 << 5, ^uint64(0)}, 3, 0, nil)
	ts := v.Now()
	if got := probe1(s, "k", 7, ts); len(got) != 1 || !reflect.DeepEqual([]uint64(got[0].QSet), []uint64{1 << 3, 0}) {
		t.Fatalf("narrow-slab entry = %v", got)
	}
	if got := probe1(s, "k", 8, ts); len(got) != 1 || !reflect.DeepEqual([]uint64(got[0].QSet), []uint64{1 << 4, 1 << 5}) {
		t.Fatalf("wide-slab entry = %v", got)
	}

	// One batch spanning three chunks.
	n := 2*chunkSize + 100
	vids := make([]int32, n)
	keys := make([]int64, n)
	qsets := make([]uint64, n*2)
	for i := range vids {
		vids[i] = int32(i + 10)
		keys[i] = int64(i % 97)
		qsets[i*2] = 1
	}
	s.InsertVec(vids, [][]int64{keys}, qsets, 2, 0, nil)
	ts = v.Now()
	total := 0
	for k := int64(0); k < 97; k++ {
		total += len(probe1(s, "k", k, ts))
	}
	if total != n+2 { // +2: the width-test entries on keys 7 and 8
		t.Fatalf("probed %d entries after multi-chunk InsertVec, want %d", total, n+2)
	}
	if got := probeVec(s, "k", keys[:97], ts); len(got) != total {
		t.Fatalf("a vector probe found %d entries, want %d", len(got), total)
	}
}

// TestProbeVecMatchesOracleUnderConcurrentInserts paces an inserter
// goroutine and a prober in lock step: each round the prober draws a
// timestamp, the inserter records one batch, whose stamp is newer, and the
// prober then probes at the timestamp it drew and at a fresh one. The STeM
// has one word; each probe at the older timestamp builds a table over the
// new batch, merged with the tail tables its size tier gives it, and must
// read that newer stamp entry by entry; the fresh probe reads one table as
// it stands whenever the round's build merged the list into one (at every
// power of two of builds). Visibility is a function of the probe timestamp
// alone, so once the inserter is done and every stamp is known, each kept
// probe must equal the oracle restricted to the entries stamped before it,
// and so must a probe at each batch's own stamp, as its episode probes.
func TestProbeVecMatchesOracleUnderConcurrentInserts(t *testing.T) {
	const domain = 32
	const maxEntries = 1 << 12
	const kept = 100 // probes kept for the oracle check
	v := NewVersions()
	s := New(v, []string{"k"}, 8, maxEntries)
	o := newOracle(1)  // written by the inserter only, read after it exits
	var stamps []int64 // the inserter's stamps, read after it exits

	next := make(chan struct{}) // the prober asks for one batch
	recorded := make(chan bool) // the inserter recorded it; false once done
	go func() {
		defer close(recorded)
		rng := rand.New(rand.NewSource(42))
		for vid := int32(0); int(vid) < maxEntries; {
			<-next
			n := 1 + rng.Intn(64)
			vids := make([]int32, n)
			keys := [][]int64{make([]int64, n)}
			qsets := make([]uint64, n)
			for j := range vids {
				vids[j] = vid
				vid++
				keys[0][j] = rng.Int63n(domain)
				qsets[j] = 1 << uint(rng.Intn(8))
			}
			stamp := s.InsertVec(vids, keys, qsets, 1, 0, nil)
			o.insert(vids, keys, qsets, 1, stamp)
			stamps = append(stamps, stamp)
			recorded <- true
		}
		<-next
	}()

	probeKeys := make([]int64, domain)
	for i := range probeKeys {
		probeKeys[i] = int64(i)
	}
	type probed struct {
		ts  int64
		got []string
	}
	var seen []probed
	rounds, served, older := 0, 0, 0
	for {
		ts := v.Now()
		next <- struct{}{}
		if !<-recorded {
			break
		}
		rounds++
		prev := canonVec(probeVec(s, "k", probeKeys, ts))
		if !allSeen(s, 0, ts) {
			older++
		}
		fresh := v.Now()
		got := canonVec(probeVec(s, "k", probeKeys, fresh))
		if tableServes(s, 0, fresh) {
			served++
		}
		if len(seen) < kept {
			seen = append(seen, probed{ts, prev}, probed{fresh, got})
		}
	}
	t.Logf("%d rounds: %d probes at the older timestamp checked entries, %d fresh probes read one table as it stood", rounds, older, served)
	if older != rounds {
		t.Errorf("%d of %d probes at the older timestamp checked entry by entry, want all", older, rounds)
	}
	if want := bits.Len(uint(rounds)); served < want {
		t.Errorf("%d fresh probes read one table as it stood, want at least %d (one per power of two of %d builds)", served, want, rounds)
	}
	for iter, p := range seen {
		if want := o.probe(0, probeKeys, p.ts); !reflect.DeepEqual(p.got, want) {
			t.Fatalf("probe %d: a probe at ts %d saw %d matches, oracle %d", iter, p.ts, len(p.got), len(want))
		}
	}
	// The stamp an insert returns is what its episode probes at: it must
	// see every earlier batch and none of its own.
	for i := 0; i < len(stamps); i += 1 + len(stamps)/64 {
		if !checkProbe(t, s, o, 0, "k", probeKeys, stamps[i]) {
			t.Fatalf("insert %d: a probe at its stamp %d diverged", i, stamps[i])
		}
	}
	// Once the inserter is done a fresh probe reads every table as it
	// stands.
	ts := v.Now()
	if !checkProbe(t, s, o, 0, "k", probeKeys, ts) || !allSeen(s, 0, ts) {
		t.Fatal("a probe after the last insert diverged or checked a table entry by entry")
	}
}

// TestProbeVecDuringGC races ProbeVec against the streaming GC operations:
// the sweep (SweepIndex, which first builds the recorded ranges) and the
// compaction (CompactLive) run concurrently with the probes, as in the
// engine. Every probe must observe a consistent state: matches are a
// subset of the original entries and a superset of the post-GC survivors,
// and compacted entries keep their stamps, so a probe after the GC reads
// the compacted table as it stands.
func TestProbeVecDuringGC(t *testing.T) {
	const n = 2 * chunkSize
	const domain = 128
	v := NewVersions()
	s := New(v, []string{"k"}, 2, n)
	// Query membership alternates per key-cohort ((i/domain)%2, not i%2 —
	// that parity would correlate with the key), so retiring query 0 kills
	// exactly half of every key's entries.
	for i := 0; i < n; i++ {
		insert1(s, int32(i), []int64{int64(i % domain)}, bitset.FromIDs(2, (i/domain)%2))
	}

	perKey := n / domain  // entries per key before GC
	liveKey := perKey / 2 // odd cohorts survive query-0 retirement
	probeKeys := make([]int64, domain)
	for i := range probeKeys {
		probeKeys[i] = int64(i)
	}

	gcDone := make(chan struct{})
	go func() {
		defer close(gcDone)
		s.SweepIndex(bitset.FromIDs(2, 0))
		s.CompactLive()
	}()

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; ; iter++ {
				select {
				case <-gcDone:
					return
				default:
				}
				ms := probeVec(s, "k", probeKeys, v.Now())
				counts := make(map[int32]int, domain)
				bad := false
				var badm match
				for _, m := range ms {
					counts[m.In]++
					// Key attribution and survivor query bits must hold at
					// every intermediate GC state.
					if int64(m.VID%domain) != probeKeys[m.In] ||
						((m.VID/domain)%2 == 1 && !m.QSet.Contains(1)) {
						bad, badm = true, m
					}
				}
				if bad {
					t.Errorf("prober %d iter %d: inconsistent match %+v", g, iter, badm)
					return
				}
				for in := range probeKeys {
					c := counts[int32(in)]
					if c < liveKey || c > perKey {
						t.Errorf("prober %d iter %d: key %d has %d matches, want %d..%d",
							g, iter, in, c, liveKey, perKey)
						return
					}
				}
			}
		}(g)
	}
	<-gcDone
	wg.Wait()
	if t.Failed() {
		return
	}

	// Post-GC exact check: compacted survivors kept their stamps, so a
	// probe reads the compacted table as it stands.
	ts := v.Now()
	ms := probeVec(s, "k", probeKeys, ts)
	if !tableServes(s, 0, ts) {
		t.Fatal("the probe after the GC did not read the compacted table as it stood")
	}
	if len(ms) != domain*liveKey {
		t.Fatalf("post-GC ProbeVec = %d matches, want %d", len(ms), domain*liveKey)
	}
	for _, m := range ms {
		if (m.VID/domain)%2 != 1 || !m.QSet.Contains(1) || m.QSet.Contains(0) {
			t.Fatalf("post-GC match %+v carries retired state", m)
		}
	}
}

// buildRandom fills a fresh STeM of query capacity qcap with n entries over
// a small key domain (keys of many entries), NULL build keys and random
// query sets in every word, inserted in batches of up to 64. It returns the
// STeM, its oracle, and probe keys covering the domain, one miss and NULL.
func buildRandom(rng *rand.Rand, qcap, n int) (*STeM, *oracle, []int64) {
	const domain = 24
	v := NewVersions()
	s := New(v, []string{"k"}, qcap, n)
	o := newOracle(1)
	qw := s.qw
	for i0 := 0; i0 < n; {
		bn := min(1+rng.Intn(64), n-i0)
		vids := make([]int32, bn)
		keys := make([]int64, bn)
		qsets := make([]uint64, bn*qw)
		for j := range vids {
			vids[j] = int32(i0 + j)
			keys[j] = rng.Int63n(domain)
			if rng.Intn(10) == 0 {
				keys[j] = NullKey
			}
			for w := 0; w < qw; w++ {
				qsets[j*qw+w] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			}
		}
		stamp := s.InsertVec(vids, [][]int64{keys}, qsets, qw, 0, nil)
		o.insert(vids, [][]int64{keys}, qsets, qw, stamp)
		i0 += bn
	}
	probeKeys := []int64{NullKey}
	for k := int64(0); k <= domain; k++ {
		probeKeys = append(probeKeys, k, k) // repeated keys: several tuples per key
	}
	return s, o, probeKeys
}

// TestPruneVecMatchesOracle checks the prune kernel against the brute-force
// model at query-set widths of 1, 2 and 5 words, each over random word
// ranges — bits outside the range must come back untouched — with NULL keys
// and keys of many entries. The prunes read one table's unions as they
// stand, and must see tuples that drop and tuples whose span empties but
// whose other words keep them. It also checks the probe kernels on the same
// STeMs, ProbeVecRange's word range and tuple mask included (checkProbe).
func TestPruneVecMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, qcap := range []int{64, 128, 320} {
		s, o, keys := buildRandom(rng, qcap, 600)
		qw := s.qw
		var spanOnly, emptied int
		for iter := 0; iter < 80; iter++ {
			tuples, elig, lo, hi := randomPrune(rng, keys, qw)
			a, b := pruneCases(o, 0, keys, tuples, elig, lo, hi, qw)
			spanOnly, emptied = spanOnly+a, emptied+b
			if !checkPruneInput(t, s, o, 0, "k", keys, tuples, elig, lo, hi) {
				t.Fatalf("qcap %d iter %d: PruneVec diverged from the oracle", qcap, iter)
			}
		}
		if ts := tablesOf(s, 0); len(ts) != 1 || !indexed(s, 0) {
			t.Fatalf("qcap %d: the prunes do not read one table holding every entry", qcap)
		}
		// The table's loops must meet both ends of their compaction: a tuple
		// that only the words outside its span keep, and one that drops.
		if emptied == 0 || qw > 1 && spanOnly == 0 {
			t.Fatalf("qcap %d: the table-served prunes emptied %d tuples and %d spans of surviving tuples; want both above 0", qcap, emptied, spanOnly)
		}
		t.Logf("qcap %d: %d tuples emptied, %d kept only outside their span", qcap, emptied, spanOnly)
		if !checkProbe(t, s, o, 0, "k", keys, s.versions.Now()) {
			t.Fatalf("qcap %d: a probe diverged from the oracle", qcap)
		}
	}
}

// maintain drives s, a STeM indexed on "a", and its oracle o through steps
// random operations, each of which changes a prune's or a probe's answer or
// the index's tables: InsertVec of up to maxBatch entries (some with NULL
// keys, one in six with an empty query set, the others with one bit in a
// random word), a sweep (SweepIndex), CompactLive and AddIndex("b").
// Keys on "a" are dense, drawn from 0..39, but one batch in six moves some
// of its keys far apart (sparseKey), so a table holding one is built
// hashed, and one without directly. After each step it calls check with
// the indexed columns.
func maintain(rng *rand.Rand, s *STeM, o *oracle, steps, maxBatch int, check func(step int, cols []string)) {
	const domain = maintainDomain
	qw := s.qw
	keyOfB := func(vid int32) int64 {
		if vid%11 == 0 {
			return NullKey
		}
		return int64(vid*7) % domain
	}
	nextVID := int32(0)
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(8); {
		case op < 4:
			n := 1 + rng.Intn(maxBatch)
			sparse := rng.Intn(6) == 0
			vids := make([]int32, n)
			keys := [][]int64{make([]int64, n), make([]int64, n)}
			qsets := make([]uint64, n*qw)
			for j := range vids {
				vids[j] = nextVID
				nextVID++
				keys[0][j] = rng.Int63n(domain)
				if sparse && rng.Intn(4) == 0 {
					keys[0][j] = sparseKey(keys[0][j])
				}
				if rng.Intn(12) == 0 {
					keys[0][j] = NullKey
				}
				keys[1][j] = keyOfB(vids[j])
				if rng.Intn(6) != 0 {
					qsets[j*qw+rng.Intn(qw)] = 1 << uint(rng.Intn(64))
				}
			}
			stamp := s.InsertVec(vids, keys, qsets, qw, 0, nil)
			o.insert(vids, keys, qsets, qw, stamp)
		case op < 6:
			retired := make(bitset.Set, qw)
			for w := range retired {
				retired[w] = rng.Uint64() & rng.Uint64() & rng.Uint64()
			}
			sweepAll(s, o, retired)
		case op == 6:
			s.CompactLive()
			dropEmpty(o)
		default:
			if len(o.byKey) == 1 {
				s.AddIndex("b", keyOfB)
				b := map[int64][]oracleEntry{}
				for _, es := range o.byKey[0] {
					for _, e := range es {
						b[keyOfB(e.vid)] = append(b[keyOfB(e.vid)], e)
					}
				}
				o.byKey = append(o.byKey, b)
			}
		}
		check(step, []string{"a", "b"}[:len(o.byKey)])
	}
}

// maintainDomain is the number of dense keys maintain draws on "a".
const maintainDomain = 40

// sparseKey is the key maintain moves dense key k to in a sparse batch:
// (k+1)·2⁴⁰, so a table holding one spans more keys than a direct layout
// takes.
func sparseKey(k int64) int64 { return (k + 1) << 40 }

// maintenanceKeys are the maintenance tests' probe keys: NULL, every dense
// and sparse key of maintain's domain, some twice, and a missing key of
// each kind.
func maintenanceKeys() []int64 {
	keys := []int64{NullKey, 0, 0, 1}
	for k := int64(0); k <= maintainDomain; k++ { // the domain's size is a guaranteed miss
		keys = append(keys, k, sparseKey(k))
	}
	return keys
}

// layouts counts tables by layout.
type layouts struct{ direct, hashed int }

func (l *layouts) add(t *unionTable) {
	if t.direct {
		l.direct++
	} else {
		l.hashed++
	}
}

// count counts index ki's tables that a probe at probeTS reads as they
// stand.
func (l *layouts) count(s *STeM, ki int, probeTS int64) {
	for _, t := range tablesOf(s, ki) {
		if t.seen(probeTS) {
			l.add(t)
		}
	}
}

// dropEmpty removes from the oracle every entry whose query set is empty,
// as CompactLive does from the STeM.
func dropEmpty(o *oracle) {
	for _, m := range o.byKey {
		for k, es := range m {
			live := es[:0]
			for _, e := range es {
				if !bitset.Set(e.qset).Empty() {
					live = append(live, e)
				}
			}
			m[k] = live
		}
	}
}

// maintenanceWidths are the query capacities the maintenance tests run
// at: one, two and five query-set words.
var maintenanceWidths = []int{64, 128, 320}

// TestPruneVecUnionAcrossMaintenance drives a STeM of one, two and five
// words, whose prunes merge its index into one table, through maintain's
// random interleaving of inserts, sweeps, compaction and AddIndex. After
// each step a prune on every index, over NULL, hit and missing keys and a
// random word range, must match the oracle, and enough of them at each
// width must have read direct and hashed tables for the check to cover both
// layouts.
func TestPruneVecUnionAcrossMaintenance(t *testing.T) {
	const steps = 400
	rng := rand.New(rand.NewSource(17))
	for _, qcap := range maintenanceWidths {
		s := New(NewVersions(), []string{"a"}, qcap, 0)
		qw := s.qw
		o := newOracle(1)
		probeKeys := maintenanceKeys()
		var l layouts
		maintain(rng, s, o, steps, 300, func(step int, cols []string) {
			for ki, col := range cols {
				tuples, elig, lo, _ := randomPrune(rng, probeKeys, qw)
				lo = min(lo, qw-1)
				hi := lo + 1 + rng.Intn(qw-lo)
				if !checkPruneInput(t, s, o, ki, col, probeKeys, tuples, elig, lo, hi) {
					t.Fatalf("%d words, step %d: PruneVec on %s diverged", qw, step, col)
				}
				l.add(tablesOf(s, ki)[0])
			}
		})
		t.Logf("%d words: tables answered %d of the prunes directly, %d hashed", qw, l.direct, l.hashed)
		if min(l.direct, l.hashed) < steps/20 {
			t.Fatalf("%d words: tables answered %d prunes directly and %d hashed; the check barely covers one of their layouts", qw, l.direct, l.hashed)
		}
	}
}

// TestProbeVecTableAcrossMaintenance drives a STeM of one, two and five
// words through maintain's random interleaving of inserts (NULL keys and
// empty query sets included), sweeps, compaction and AddIndex. After each
// step a probe on every index, over NULL, hit and missing keys, at a fresh
// timestamp and at the one drawn before the previous step, older than the
// stamp of an insert in that step, must match the oracle, masked and unmasked (checkProbe), and at each width at
// least 100 of them must have read a table as it stood, direct and hashed.
func TestProbeVecTableAcrossMaintenance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, qcap := range maintenanceWidths {
		v := NewVersions()
		s := New(v, []string{"a"}, qcap, 0)
		o := newOracle(1)
		probeKeys := maintenanceKeys()
		prevTS := v.Now()
		served := 0
		var l layouts
		maintain(rng, s, o, 300, 24, func(step int, cols []string) {
			ts := v.Now()
			for ki, col := range cols {
				if !checkProbe(t, s, o, ki, col, probeKeys, ts) {
					t.Fatalf("%d words, step %d: ProbeVec on %s diverged", s.qw, step, col)
				}
				before := l.direct + l.hashed
				if l.count(s, ki, ts); l.direct+l.hashed > before {
					served++
				}
				if !checkProbe(t, s, o, ki, col, probeKeys, prevTS) {
					t.Fatalf("%d words, step %d: ProbeVec on %s at the previous step's timestamp diverged", s.qw, step, col)
				}
			}
			prevTS = ts
		})
		t.Logf("%d words: %d of the probes read a table as it stood, %d direct and %d hashed tables", s.qw, served, l.direct, l.hashed)
		if served < 100 || min(l.direct, l.hashed) < 15 {
			t.Fatalf("%d words: %d probes read a table as it stood, %d direct and %d hashed tables; the check barely covers the unchecked reads or one of their layouts", s.qw, served, l.direct, l.hashed)
		}
	}
}

// TestProbeSlabMatchesOracle checks ProbeVecRange on probing vectors laid
// out as the executor's are (slabProbe): keys read through vIDs, words read
// from a slab whose stride is the range's or wider, at a zero offset and at
// non-zero ones, masked, with tuples that have no bit under the mask. It
// runs on a one-word STeM and on a five-word one over ranges of one, two
// and five words, with NULL keys on both sides and keys of several
// entries, once read from a table as it stands and once, at a timestamp
// older than one more entry's stamp, entry by entry; checkSlab compares
// both with the oracle, the probed count and the tuple order included.
func TestProbeSlabMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct {
		qcap   int
		ranges [][2]int
	}{{64, [][2]int{{0, 1}}}, {320, [][2]int{{0, 1}, {3, 4}, {1, 3}, {3, 5}, {0, 5}}}} {
		for _, newer := range []bool{false, true} {
			const entries, domain = 600, 200
			v := NewVersions()
			s := New(v, []string{"k"}, tc.qcap, entries)
			o := newOracle(1)
			qw := s.qw
			vids := make([]int32, entries)
			keys := make([]int64, entries)
			qsets := make([]uint64, entries*qw)
			for i := range vids {
				vids[i], keys[i] = int32(i), rng.Int63n(domain)
				if i%29 == 0 {
					keys[i] = NullKey
				}
				if i%13 != 0 { // else an entry every query has left
					for w := 0; w < qw; w++ {
						qsets[i*qw+w] = rng.Uint64() & rng.Uint64()
					}
				}
			}
			o.insert(vids, [][]int64{keys}, qsets, qw, s.InsertVec(vids, [][]int64{keys}, qsets, qw, 0, nil))
			old := v.Now()
			if newer { // an entry newer than the probes has them check each entry
				o.insert(vids[:1], [][]int64{{1}}, qsets[qw:2*qw], qw, s.InsertVec(vids[:1], [][]int64{{1}}, qsets[qw:2*qw], qw, 0, nil))
			}
			probeKeys := []int64{NullKey}
			for k := int64(0); k <= domain; k++ { // domain itself misses
				probeKeys = append(probeKeys, k)
			}
			for _, r := range tc.ranges {
				lo, hi := r[0], r[1]
				nw := hi - lo
				for _, so := range [][2]int{{nw, 0}, {nw + 1, 1}, {nw + 3, 2}, {qw + 2, 2}} {
					stride, off := so[0], so[1]
					ts := old
					if !newer {
						ts = v.Now()
					}
					p := slabProbe(rng, probeKeys, nw, stride, off)
					if !checkSlab(t, s, o, 0, "k", p, ts, lo, hi) {
						t.Fatalf("%d words, newer %t: range [%d,%d) stride %d offset %d diverged", qw, newer, lo, hi, stride, off)
					}
					if served := tableServes(s, 0, ts); served == newer {
						t.Fatalf("%d words, newer %t: the probe read one table as it stood: %t", qw, newer, served)
					}
				}
			}
		}
	}
}

// TestProbeKernelMatchesOracle is the differential test of the table
// loops (unionTable.probe: probeWord and probeWide) against the oracle,
// through checkSlab: matches, words, probed count and the buffers' prior
// content. It runs on STeMs of one, two and five words, each once with
// dense keys (a direct table) and once with keys spread 2⁴⁰ apart (a
// hashed one), over every word range, so the one-word ranges of wide
// tables too. Of the keys 0..199, every fifth has no entry (an empty slot
// inside a direct table's range), every fifth after it three, the rest
// one, and every fourth entry has no words. The probe keys are all of
// them, NULL, keys below and above the range and both ends of int64,
// shuffled and repeated; they probe unmasked, where the entries without
// words match, and masked over slabs of several strides and offsets, where
// they do not and about a quarter of the tuples have no bit under the mask.
func TestProbeKernelMatchesOracle(t *testing.T) {
	const domain = 200
	rng := rand.New(rand.NewSource(43))
	for _, qcap := range maintenanceWidths {
		for _, spread := range []bool{false, true} {
			key := func(k int64) int64 { return k }
			if spread {
				key = func(k int64) int64 { return k << 40 }
			}
			var keys []int64
			for k := int64(0); k < domain; k++ {
				for range []int{0, 1, 3, 1, 1}[k%5] {
					keys = append(keys, key(k))
				}
			}
			s, o := unionFixture(t, qcap, keys, 4)
			qw := s.qw
			probeKeys := []int64{NullKey, key(-1), key(domain), math.MinInt64 + 1, math.MaxInt64}
			for range 3 {
				for k := int64(0); k < domain; k++ {
					probeKeys = append(probeKeys, key(k))
				}
			}
			rng.Shuffle(len(probeKeys), func(i, j int) { probeKeys[i], probeKeys[j] = probeKeys[j], probeKeys[i] })
			ts := s.versions.Now()
			for lo := 0; lo < qw; lo++ {
				for hi := lo + 1; hi <= qw; hi++ {
					nw := hi - lo
					ps := []Probe{keyProbe(probeKeys, nil, nw)}
					for _, so := range [][2]int{{nw, 0}, {nw + 2, 1}, {qw + 1, qw + 1 - nw}} {
						ps = append(ps, slabProbe(rng, probeKeys, nw, so[0], so[1]))
					}
					for _, p := range ps {
						if !checkSlab(t, s, o, 0, "k", p, ts, lo, hi) {
							t.Fatalf("%d words, spread %t: range [%d,%d) masked %t stride %d offset %d diverged", qw, spread, lo, hi, p.Qsets != nil, p.Stride, p.Off)
						}
					}
				}
			}
			if tb := tablesOf(s, 0); !tableServes(s, 0, ts) || tb[0].direct == spread {
				t.Fatalf("%d words, spread %t: the probes did not read one table as it stood, or it was direct %t", qw, spread, tb[0].direct)
			}
		}
	}
}

// TestProbeVecTableRespectsProbeTS pins the table's visibility bound at
// one, two and five words: a table holding an entry stamped after a probe's
// timestamp must be read entry by entry by that probe, which sees only the
// entries stamped before it, and a probe after every stamp reads the table
// as it stands, with every entry, the one with an empty query set included
// (an unmasked probe returns it). Reading without the maxTS check or
// without the per-entry stamp check, or building a table without the empty
// entries, fails here.
func TestProbeVecTableRespectsProbeTS(t *testing.T) {
	for _, qcap := range maintenanceWidths {
		v := NewVersions()
		s := New(v, []string{"k"}, qcap, 0)
		qw := s.qw
		// words puts each entry's bits in the last word.
		words := func(xs ...uint64) []uint64 {
			out := make([]uint64, len(xs)*qw)
			for i, x := range xs {
				out[i*qw+qw-1] = x
			}
			return out
		}
		// Key 5 gets an entry with bits and one every query has left, then,
		// after the old probe timestamp is drawn, one more.
		s.InsertVec([]int32{1, 2, 9}, [][]int64{{5, 5, 6}}, words(0x1, 0, 0x4), qw, 0, nil)
		old := v.Now()
		s.InsertVec([]int32{3}, [][]int64{{5}}, words(0x2), qw, 0, nil)
		keys := []int64{5, 6, 7, NullKey}

		// A prune builds the table now, with the newer entry in it.
		pruneTuples(t, s, words(1, 1, 1, 1), qw, bitset.Set(words(1)), 0, qw, "k", keys, make([]uint64, qw))
		if len(tablesOf(s, 0)) != 1 || tableServes(s, 0, old) {
			t.Fatalf("%d words, fixture: want one table that the old timestamp reads entry by entry", qw)
		}
		type m struct {
			in  int32
			vid int32
			q   uint64
		}
		collect := func(ts int64) []m {
			var out []m
			for _, x := range probeVec(s, "k", keys, ts) {
				out = append(out, m{x.In, x.VID, x.QSet[qw-1]})
			}
			sort.Slice(out, func(i, j int) bool { return out[i].vid < out[j].vid })
			return out
		}
		if got, want := collect(old), []m{{0, 1, 0x1}, {0, 2, 0}, {1, 9, 0x4}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%d words: probe at the older timestamp = %v, want %v", qw, got, want)
		}
		now := v.Now()
		if got, want := collect(now), []m{{0, 1, 0x1}, {0, 2, 0}, {0, 3, 0x2}, {1, 9, 0x4}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%d words: probe after every stamp = %v, want %v", qw, got, want)
		}
		if !tableServes(s, 0, now) {
			t.Fatalf("%d words: the probe after every stamp did not read the table as it stood", qw)
		}
	}
}

// TestSymmetricJoinAcrossDeltas runs a growing symmetric join on one
// worker at one, two and five words: two STeMs take turns inserting a
// vector of 20 to 38 tuples (Fig. 13's vectors hold about 29) and probing
// the other STeM with the vector's keys, so each probe indexes what the
// other side inserted since as a new delta. Every probe must match the
// oracle (checkProbe) at the stamp its insert returned and at the other
// side's newest stamp, whose entries the probed STeM's newest table holds,
// so that probe must check them entry by entry. Each index must hold at
// most ⌈log2 deltas⌉ + 1 tables. Reading every table as it stands, or never
// merging tables, fails here.
func TestSymmetricJoinAcrossDeltas(t *testing.T) {
	const domain, rounds = 150, 100
	for _, qcap := range maintenanceWidths {
		v := NewVersions()
		stems := [2]*STeM{New(v, []string{"k"}, qcap, 0), New(v, []string{"k"}, qcap, 0)}
		oracles := [2]*oracle{newOracle(1), newOracle(1)}
		qw := stems[0].qw
		rng := rand.New(rand.NewSource(int64(qcap)))
		vid := int32(0)
		prevTS := v.Now()
		most, checked := 0, 0
		for round := 0; round < rounds; round++ {
			for side := range 2 {
				mine, other, o := stems[side], stems[1-side], oracles[side]
				n := 20 + rng.Intn(19)
				vids := make([]int32, n)
				keys := make([]int64, n)
				qsets := make([]uint64, n*qw)
				for j := range vids {
					vids[j], keys[j] = vid, rng.Int63n(domain)
					vid++
					if rng.Intn(16) == 0 {
						keys[j] = NullKey
					}
					for w := 0; w < qw; w++ {
						qsets[j*qw+w] = rng.Uint64() & rng.Uint64()
					}
				}
				ts := mine.InsertVec(vids, [][]int64{keys}, qsets, qw, 0, nil)
				o.insert(vids, [][]int64{keys}, qsets, qw, ts)
				probeKeys := append(keys, domain) // and a miss
				if !checkProbe(t, other, oracles[1-side], 0, "k", probeKeys, ts) {
					t.Fatalf("%d words, round %d side %d: a probe at its insert's stamp diverged", qw, round, side)
				}
				if !allSeen(other, 0, prevTS) {
					checked++
				}
				if !checkProbe(t, other, oracles[1-side], 0, "k", probeKeys, prevTS) {
					t.Fatalf("%d words, round %d side %d: a probe at the other side's newest stamp diverged", qw, round, side)
				}
				prevTS = ts
				tables := tablesOf(other, 0)
				deltas := 0
				for _, tb := range tables {
					deltas += tb.deltas
				}
				if bound := bits.Len(uint(deltas-1)) + 1; len(tables) > bound {
					t.Fatalf("%d words, round %d side %d: %d tables hold %d deltas, want at most %d", qw, round, side, len(tables), deltas, bound)
				}
				most = max(most, len(tables))
			}
		}
		t.Logf("%d words: at most %d tables per STeM; %d probes at the other side's stamp checked entries", qw, most, checked)
		if most < 4 || checked < rounds {
			t.Fatalf("%d words: at most %d tables, %d probes checked entries; the check barely covers the table list", qw, most, checked)
		}
	}
}

// TestQueryIDReuseAfterSweep retires a query whose bit x sits in the last
// word, at one, two and five words. Its entries are indexed first, two
// deltas merged by prunes into one table, and then the chunks and the table
// are swept of x. A prune eligible on x alone, reading that table as it
// stands, must keep no tuple. Fresh entries carrying x, as a query
// recycling the ID would insert, then go in, one of them on an old key, and a probe masked to x, which reads the swept table
// beside a delta of the fresh entries, and a prune eligible on x, which
// merges the two, must see only the fresh entries. Skipping the table sweep
// fails here.
func TestQueryIDReuseAfterSweep(t *testing.T) {
	for _, qcap := range maintenanceWidths {
		v := NewVersions()
		s := New(v, []string{"k"}, qcap, 0)
		o := newOracle(1)
		qw := s.qw
		x := 64*qw - 1
		onlyX := bitset.FromIDs(qcap, x)
		insert := func(keys []int64, vid0 int32, q bitset.Set) {
			vids := make([]int32, len(keys))
			qsets := make([]uint64, 0, len(keys)*qw)
			for j := range vids {
				vids[j] = vid0 + int32(j)
				qsets = append(qsets, q...)
			}
			o.insert(vids, [][]int64{keys}, qsets, qw, s.InsertVec(vids, [][]int64{keys}, qsets, qw, 0, nil))
		}
		var probeKeys []int64
		for k := int64(0); k < 120; k++ {
			probeKeys = append(probeKeys, k)
		}
		tq := make([]uint64, len(probeKeys)*qw)
		for i := range probeKeys {
			copy(tq[i*qw:], onlyX)
		}
		// prune prunes every probe key eligible on x alone against the
		// oracle and returns how many tuples keep a bit.
		prune := func(when string) int {
			tuples := append([]uint64(nil), tq...)
			if !checkPruneInput(t, s, o, 0, "k", probeKeys, tuples, onlyX, 0, qw) {
				t.Fatalf("%d words: a prune eligible on the recycled query %s diverged", qw, when)
			}
			kept := 0
			for i := range probeKeys {
				if !bitset.Set(tuples[i*qw : (i+1)*qw]).Empty() {
					kept++
				}
			}
			return kept
		}

		old := bitset.FromIDs(qcap, 0, x)
		insert(probeKeys[:30], 0, old)
		prune("on the first delta")
		insert(probeKeys[30:60], 100, old)
		prune("on the second delta") // merges both deltas into one table
		sweepAll(s, o, onlyX)
		if n := len(tablesOf(s, 0)); n != 1 || !indexed(s, 0) {
			t.Fatalf("%d words, fixture: %d tables, want the merged one holding every entry", qw, n)
		}
		if kept := prune("after the sweep"); kept != 0 {
			t.Fatalf("%d words: a prune eligible on the swept query kept %d tuples, want none", qw, kept)
		}

		insert(append(probeKeys[100:110:110], 5), 1000, onlyX)
		ts := v.Now()
		p := keyProbe(probeKeys, tq, qw)
		p.Mask = onlyX
		if !checkSlab(t, s, o, 0, "k", p, ts, 0, qw) {
			t.Fatalf("%d words: a probe masked to the recycled query diverged", qw)
		}
		if n := len(tablesOf(s, 0)); n != 2 {
			t.Fatalf("%d words, fixture: the probe left %d tables, want the swept one and a delta", qw, n)
		}
		ms, _, _ := s.ProbeVecRange(nil, nil, "k", p, ts, 0, qw)
		if len(ms) != 11 {
			t.Fatalf("%d words: a probe masked to the recycled query found %d matches, want the 11 fresh entries", qw, len(ms))
		}
		for _, m := range ms {
			if m.VID < 1000 {
				t.Fatalf("%d words: a probe masked to the recycled query matched old entry %d", qw, m.VID)
			}
		}
		if kept := prune("after the fresh insert"); kept != 11 {
			t.Fatalf("%d words: a prune eligible on the recycled query kept %d tuples, want the 11 fresh keys", qw, kept)
		}
	}
}

// TestUnionTableWaitsForCommit prunes while inserts have reserved their
// entries but not yet written or recorded them (InsertVec's two halves,
// driven apart), at one, two and five words. Such a prune must not read the
// unwritten entries, and each insert's bits must show in the first prune
// after it records its range, also when a later reservation records before
// an earlier one. A build over the reserved count instead of
// the recorded ranges fails here.
func TestUnionTableWaitsForCommit(t *testing.T) {
	for _, qcap := range maintenanceWidths {
		s := New(NewVersions(), []string{"k"}, qcap, 0)
		qw := s.qw
		keys := []int64{0, 1, 2, 3}
		// last is a slab of one set per key with x in its last word.
		last := func(x uint64) []uint64 {
			out := make([]uint64, len(keys)*qw)
			for i := range keys {
				out[i*qw+qw-1] = x
			}
			return out
		}
		insert := func(bits uint64) func() {
			base := s.reserve(len(keys))
			return func() { s.fill(base, []int32{0, 1, 2, 3}, [][]int64{keys}, last(bits), qw) }
		}
		check := func(when string, want uint64) {
			t.Helper()
			tuples := last(0xf)
			pruneTuples(t, s, tuples, qw, bitset.Set(last(0xf)[:qw]), 0, qw, "k", keys, make([]uint64, qw))
			if w := last(want); !reflect.DeepEqual(tuples, w) {
				t.Fatalf("%d words: prune %s = %x, want %x", qw, when, tuples, w)
			}
		}
		insert(1)()
		check("after the first insert", 1)
		if !indexed(s, 0) {
			t.Fatalf("%d words: the first insert is still unindexed after a prune", qw)
		}

		commit := insert(2)
		check("during a reservation", 1)
		commit()
		check("after its commit", 3)

		first, second := insert(4), insert(8)
		second()
		check("after the later reservation commits first", 0xb)
		first()
		check("after both commit", 0xf)
		if !indexed(s, 0) || len(tablesOf(s, 0)) != 1 {
			t.Fatalf("%d words: the prune after the last commit left %d tables or an unindexed range", qw, len(tablesOf(s, 0)))
		}
	}
}

// TestNewerEntriesIndexedOnce stamps a few entries after a probe timestamp
// is drawn, behind many older ones, and probes at that timestamp and
// prunes many times, at one, two and five words. The first prune indexes
// every entry, the newer ones included, and no later call rebuilds: each
// reads that one table, the probes checking every entry's stamp, and
// matches the oracle. A probe at a fresh timestamp is then served from the
// same table as it stands.
func TestNewerEntriesIndexedOnce(t *testing.T) {
	const entries, calls = 2000, 8
	for _, qcap := range maintenanceWidths {
		v := NewVersions()
		s := New(v, []string{"k"}, qcap, 0)
		o := newOracle(1)
		qw := s.qw
		rng := rand.New(rand.NewSource(int64(qcap)))
		vids := make([]int32, entries)
		keys := make([]int64, entries)
		qsets := make([]uint64, entries*qw)
		for i := range vids {
			vids[i], keys[i] = int32(i), int64(i%500)
			for w := 0; w < qw; w++ {
				qsets[i*qw+w] = rng.Uint64() & rng.Uint64()
			}
		}
		insert := func(lo, hi int) {
			stamp := s.InsertVec(vids[lo:hi], [][]int64{keys[lo:hi]}, qsets[lo*qw:hi*qw], qw, 0, nil)
			o.insert(vids[lo:hi], [][]int64{keys[lo:hi]}, qsets[lo*qw:hi*qw], qw, stamp)
		}
		cut := entries - 10
		insert(0, cut)
		old := v.Now()
		insert(cut, entries)
		probeKeys := append(keys[:500:500], 500, NullKey)

		var tb *unionTable
		for i := 0; i < calls; i++ {
			if !checkPrune(t, rng, s, o, 0, "k", probeKeys) {
				t.Fatalf("%d words, call %d: a prune diverged", qw, i)
			}
			if !checkProbe(t, s, o, 0, "k", probeKeys, old) {
				t.Fatalf("%d words, call %d: a probe older than the newer entries diverged", qw, i)
			}
			tables := tablesOf(s, 0)
			if i == 0 {
				tb = tables[0]
			}
			if len(tables) != 1 || tables[0] != tb || !indexed(s, 0) {
				t.Fatalf("%d words, call %d: the index holds %d tables (first kept %t), want the first call's table alone", qw, i, len(tables), tables[0] == tb)
			}
			if tableServes(s, 0, old) {
				t.Fatalf("%d words, call %d: a table holding a newer entry is read without checking its stamp", qw, i)
			}
		}
		ts := v.Now()
		if !checkProbe(t, s, o, 0, "k", probeKeys, ts) {
			t.Fatalf("%d words: a probe at a fresh timestamp diverged", qw)
		}
		if tables := tablesOf(s, 0); len(tables) != 1 || tables[0] != tb || !tableServes(s, 0, ts) {
			t.Fatalf("%d words: the probe at a fresh timestamp was not served from the table built before it", qw)
		}
	}
}

// TestConcurrentProbesBuildEachDeltaOnce inserts a vector and then probes
// it from four goroutines at once, round after round. The probes that find
// the recorded range wait for the one that builds its delta and read the
// list it published, so every round adds exactly one delta and no table is
// built over no entries; the list stays within ⌈log2 deltas⌉ + 1 tables.
// The final probe must match the oracle.
func TestConcurrentProbesBuildEachDeltaOnce(t *testing.T) {
	const rounds, vec, probers, domain = 40, 30, 4, 400
	v := NewVersions()
	s := New(v, []string{"k"}, 128, 0)
	o := newOracle(1)
	qw := s.qw
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < rounds; round++ {
		vids := make([]int32, vec)
		keys := make([]int64, vec)
		qsets := make([]uint64, vec*qw)
		for j := range vids {
			vids[j], keys[j] = int32(round*vec+j), rng.Int63n(domain)
			for w := 0; w < qw; w++ {
				qsets[j*qw+w] = rng.Uint64() & rng.Uint64()
			}
		}
		ts := s.InsertVec(vids, [][]int64{keys}, qsets, qw, 0, nil)
		o.insert(vids, [][]int64{keys}, qsets, qw, ts)

		start := make(chan struct{})
		var wg sync.WaitGroup
		for range probers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				probeVec(s, "k", keys, ts)
			}()
		}
		close(start)
		wg.Wait()

		tables := tablesOf(s, 0)
		deltas := 0
		for _, tb := range tables {
			if tb.deltas == 0 || tb.keys == 0 {
				t.Fatalf("round %d: the index holds a table of %d deltas and %d keys", round, tb.deltas, tb.keys)
			}
			deltas += tb.deltas
		}
		if !indexed(s, 0) || deltas != round+1 {
			t.Fatalf("round %d: indexed %t, %d deltas, want every range indexed in %d", round, indexed(s, 0), deltas, round+1)
		}
		if bound := bits.Len(uint(deltas-1)) + 1; len(tables) > bound {
			t.Fatalf("round %d: %d tables hold %d deltas, want at most %d", round, len(tables), deltas, bound)
		}
	}
	probeKeys := make([]int64, domain+1)
	for k := range probeKeys {
		probeKeys[k] = int64(k)
	}
	if !checkProbe(t, s, o, 0, "k", probeKeys, v.Now()) {
		t.Fatal("a probe after the concurrent rounds diverged")
	}
}

// unionFixture inserts one entry per element of keys (a key listed twice
// gets two) into a fresh STeM of query capacity qcap, in one vector. Entry
// i has two bits in every word
// unless zeroEvery > 0 and i%zeroEvery == zeroEvery-1, which leaves it
// none. It returns the STeM and its oracle.
func unionFixture(t *testing.T, qcap int, keys []int64, zeroEvery int) (*STeM, *oracle) {
	v := NewVersions()
	s := New(v, []string{"k"}, qcap, 0)
	qw := s.qw
	o := newOracle(1)
	vids := make([]int32, len(keys))
	qsets := make([]uint64, len(keys)*qw)
	for i := range vids {
		vids[i] = int32(i)
		if zeroEvery > 0 && i%zeroEvery == zeroEvery-1 {
			continue
		}
		for w := 0; w < qw; w++ {
			qsets[i*qw+w] = 1<<uint((i+w)%64) | 1<<uint((5*i+w+3)%64)
		}
	}
	o.insert(vids, [][]int64{keys}, qsets, qw, s.InsertVec(vids, [][]int64{keys}, qsets, qw, 0, nil))
	return s, o
}

// checkUnionServes prunes s on probeKeys, every tuple carrying every query,
// and probes it at a fresh timestamp: both must match the oracle
// (checkPruneInput, checkProbe), and the probe must read the one table the
// prune built as it stands, which it returns.
func checkUnionServes(t *testing.T, s *STeM, o *oracle, probeKeys []int64) *unionTable {
	t.Helper()
	qw := s.qw
	tuples := make([]uint64, len(probeKeys)*qw)
	for i := range tuples {
		tuples[i] = ^uint64(0)
	}
	if !checkPruneInput(t, s, o, 0, "k", probeKeys, tuples, bitset.NewFull(64*qw), 0, qw) {
		t.Fatalf("%d words: a prune served by the table diverged", qw)
	}
	ts := s.versions.Now()
	if !checkProbe(t, s, o, 0, "k", probeKeys, ts) || !tableServes(s, 0, ts) {
		t.Fatalf("%d words: a probe diverged or did not read one table as it stood", qw)
	}
	return tablesOf(s, 0)[0]
}

// growKeys is the key set of the layout tests: 300 keys, each key(k) for
// k in 0..299 and every third with a second entry, and the probe keys: NULL,
// a miss past the last key, and every key.
func growKeys(key func(k int) int64) (keys, probeKeys []int64) {
	const n = 300
	probeKeys = []int64{NullKey, key(n)}
	for k := 0; k < n; k++ {
		for e := 0; e <= min(k%3, 1); e++ {
			keys = append(keys, key(k))
		}
		probeKeys = append(probeKeys, key(k))
	}
	return keys, probeKeys
}

// TestUnionTableHashedForSparseKeys builds hashed union tables over 300
// keys spread far apart, so the build cannot lay them out directly, every
// third key with four entries and the others with three, at one, two and
// five words. The build indexes the 1000 entries into a table sized for as
// many keys and then moves the 300 keys to the 1024 slots that hold them at
// most half full: every key's union words, sole vID and slot and entry run
// must survive the move, so prunes and probes served by the table must
// match the oracle.
func TestUnionTableHashedForSparseKeys(t *testing.T) {
	keys, probeKeys := growKeys(func(k int) int64 { return int64(k) << 40 })
	for k := 0; k < 300; k++ {
		keys = append(keys, int64(k)<<40, int64(k)<<40)
	}
	for _, qcap := range maintenanceWidths {
		s, o := unionFixture(t, qcap, keys, 0)
		tb := checkUnionServes(t, s, o, probeKeys)
		if tb.direct || len(tb.slots) != hashedSlots(300) || tb.keys != 300 {
			t.Fatalf("%d words: want a hashed table of %d slots holding 300 keys, got direct %t with %d slots and %d keys", s.qw, hashedSlots(300), tb.direct, len(tb.slots), tb.keys)
		}
	}
}

// TestUnionTableDirectForDenseKeys is TestUnionTableHashedForSparseKeys's
// twin on dense keys 0..299, every third with a second entry: their range is within directSpan times the
// 1024 slots a hashed table of 300 keys has, so the build lays them out
// directly, one slot per key of the range, and prunes and probes must again
// match the oracle.
func TestUnionTableDirectForDenseKeys(t *testing.T) {
	keys, probeKeys := growKeys(func(k int) int64 { return int64(k) })
	for _, qcap := range maintenanceWidths {
		s, o := unionFixture(t, qcap, keys, 0)
		tb := checkUnionServes(t, s, o, probeKeys)
		if !tb.direct || tb.base != 0 || len(tb.slots) != 300 {
			t.Fatalf("%d words: want a direct table of 300 slots from key 0, got direct %t, base %d, %d slots", s.qw, tb.direct, tb.base, len(tb.slots))
		}
	}
}

// TestUnionTableDirectEdgeCases checks the direct layout where its index
// arithmetic can slip, at one, two and five words, against the oracle:
// negative keys; ranges at either end of int64, probed with
// NULL (MinInt64, one below the lowest possible range) and with keys that
// wrap around the range's base; keys spread across all of int64, whose
// range overflows max − min + 1 and must be hashed; and keys with several
// entries and entries with no bits. Every case probes the keys, the keys
// one below and one above the range, 0 and both ends of int64.
func TestUnionTableDirectEdgeCases(t *testing.T) {
	run := func(lo int64, n int) []int64 {
		var keys []int64
		for k := 0; k < n; k++ {
			keys = append(keys, lo+int64(k))
			if k%3 == 0 {
				keys = append(keys, lo+int64(k), lo+int64(k))
			}
		}
		return keys
	}
	for _, tc := range []struct {
		name   string
		keys   []int64
		direct bool
		base   int64
	}{
		{"negative", run(-150, 150), true, -150},
		{"straddling zero", run(-7, 20), true, -7},
		{"at MaxInt64", run(math.MaxInt64-19, 20), true, math.MaxInt64 - 19},
		{"at MinInt64", run(math.MinInt64+1, 20), true, math.MinInt64 + 1},
		{"one key", []int64{42, 42}, true, 42},
		{"across int64", []int64{math.MinInt64 + 1, -1, 0, 1, math.MaxInt64}, false, 0},
		{"across half of int64", []int64{math.MinInt64 / 2, 0, 3, math.MaxInt64 / 2}, false, 0},
	} {
		probeKeys := []int64{NullKey, math.MinInt64 + 1, math.MaxInt64, 0, -1}
		lo, hi := slices.Min(tc.keys), slices.Max(tc.keys)
		probeKeys = append(probeKeys, tc.keys...)
		if lo > math.MinInt64+1 {
			probeKeys = append(probeKeys, lo-1)
		}
		if hi < math.MaxInt64 {
			probeKeys = append(probeKeys, hi+1)
		}
		for _, qcap := range maintenanceWidths {
			s, o := unionFixture(t, qcap, tc.keys, 4)
			tb := checkUnionServes(t, s, o, probeKeys)
			if tb.direct != tc.direct || tc.direct && (tb.base != lo || len(tb.slots) != int(hi-lo)+1) {
				t.Fatalf("%s, %d words: table direct %t, base %d, %d slots; want direct %t from %d", tc.name, s.qw, tb.direct, tb.base, len(tb.slots), tc.direct, lo)
			}
		}
	}
}

// TestPruneVecUnionUnderConcurrentInserts prunes from two goroutines
// against a one-word STeM while two others insert into it, so
// the prunes build and merge tables while inserts reserve, write and record
// their ranges around them. Every entry of key k carries the same bits f(k)
// and a first batch holds every key, so each prune must read
// exactly f(k) for a key of the domain and nothing for NULL or a missing
// key, whatever the interleaving. Run under -race this also checks that a
// build reads only entries whose insert has recorded its range.
func TestPruneVecUnionUnderConcurrentInserts(t *testing.T) {
	const domain, batches = 48, 150
	f := func(k int64) uint64 { return 1<<uint(k%64) | 1<<uint(k*7%64) }
	s := New(NewVersions(), []string{"k"}, 64, 0)
	insert := func(keys []int64) {
		qsets := make([]uint64, len(keys))
		for j, k := range keys {
			if k != NullKey {
				qsets[j] = f(k)
			}
		}
		s.InsertVec(make([]int32, len(keys)), [][]int64{keys}, qsets, 1, 0, nil)
	}
	seed := make([]int64, domain)
	for k := range seed {
		seed[k] = int64(k)
	}
	insert(seed)

	probeKeys := []int64{NullKey, domain}
	for k := int64(0); k < domain; k++ {
		probeKeys = append(probeKeys, k)
	}
	var inserters, pruners sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		inserters.Add(1)
		go func(g int) {
			defer inserters.Done()
			rng := rand.New(rand.NewSource(int64(10 + g)))
			for i := 0; i < batches; i++ {
				keys := make([]int64, 1+rng.Intn(domain))
				for j := range keys {
					keys[j] = rng.Int63n(domain)
					if rng.Intn(10) == 0 {
						keys[j] = NullKey
					}
				}
				insert(keys)
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		pruners.Add(1)
		go func(g int) {
			defer pruners.Done()
			rng := rand.New(rand.NewSource(int64(20 + g)))
			tuples := make([]uint64, len(probeKeys))
			for iter := 0; ; iter++ {
				finished := false
				select {
				case <-done:
					finished = true
				default:
				}
				e := rng.Uint64() | rng.Uint64()
				for i := range tuples {
					tuples[i] = rng.Uint64()
				}
				orig := append([]uint64(nil), tuples...)
				pruneTuples(t, s, tuples, 1, bitset.Set{e}, 0, 1, "k", probeKeys, make([]uint64, 1))
				for i, k := range probeKeys {
					var u uint64
					if k != NullKey && k < domain {
						u = f(k)
					}
					if want := orig[i] & (u | ^e); tuples[i] != want {
						t.Errorf("pruner %d iter %d key %d: PruneVec = %x, want %x", g, iter, k, tuples[i], want)
						return
					}
				}
				if finished {
					return // one full pass after the last insert
				}
			}
		}(g)
	}
	inserters.Wait()
	close(done)
	pruners.Wait()
	if !t.Failed() && (!indexed(s, 0) || len(tablesOf(s, 0)) != 1) {
		t.Fatal("the last prune left an unindexed range or several tables")
	}
}

// TestPruneVecDuringGC runs the prune kernel while the GC sweeper clears a
// retired query set's bits from the same entries (SweepIndex, which builds
// the recorded ranges and publishes swept copies of the tables). A retired
// bit may be seen before or after its sweep, so each result must lie
// between the oracle over the swept entries and the oracle over the
// original ones, and equal both on every other bit. Run under -race this
// also checks that a table is never written once published.
func TestPruneVecDuringGC(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, qcap := range []int{320, 64} {
		pruneDuringGC(t, rng, qcap)
	}
}

// pruneDuringGC is TestPruneVecDuringGC at one query capacity.
func pruneDuringGC(t *testing.T, rng *rand.Rand, qcap int) {
	s, o, keys := buildRandom(rng, qcap, 2*chunkSize)
	qw := s.qw
	retired := make(bitset.Set, qw)
	for w := range retired {
		retired[w] = rng.Uint64()
	}
	swept := newOracle(1)
	for k, es := range o.byKey[0] {
		for _, e := range es {
			q := append([]uint64(nil), e.qset...)
			bitset.Set(q).AndNotWith(retired)
			swept.byKey[0][k] = append(swept.byKey[0][k], oracleEntry{e.vid, e.stamp, q})
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.SweepIndex(retired)
	}()
	acc := make([]uint64, qw)
	for iter := 0; ; iter++ {
		tuples, elig, lo, hi := randomPrune(rng, keys, qw)
		orig := append([]uint64(nil), tuples...)
		pruneTuples(t, s, tuples, qw, elig, lo, hi, "k", keys, acc)
		for i, k := range keys {
			got := tuples[i*qw : (i+1)*qw]
			before := o.prune(0, k, orig[i*qw:(i+1)*qw], elig, lo, hi)
			after := swept.prune(0, k, orig[i*qw:(i+1)*qw], elig, lo, hi)
			for w := range got {
				if got[w]&^before[w] != 0 || after[w]&^got[w] != 0 || (got[w]^before[w])&^retired[w] != 0 {
					t.Fatalf("qcap %d iter %d key %d word %d: PruneVec = %x, want between %x and %x", qcap, iter, k, w, got[w], after[w], before[w])
				}
			}
		}
		select {
		case <-done:
			if iter == 0 {
				continue // make sure one full pass runs after the sweep
			}
			return
		default:
		}
	}
}

// TestProbeVecPruneVecZeroAlloc pins the kernels' allocation contract at
// the package boundary, below the episode-step guards in internal/exec: with
// warm caller-owned buffers ProbeVecRange (with and without a tuple mask,
// over key lists and over slabs laid out as a join node's, a one-word range
// of the two-word table included) and PruneVec do not allocate, on one- and
// two-word STeMs whose tables they read as they stand and on a two-word
// STeM whose entry newer than the probes has them check each entry, and
// neither does an InsertVec that stays inside an allocated chunk.
func TestProbeVecPruneVecZeroAlloc(t *testing.T) {
	const entries, fanout, batch, runs = 1024, 4, 8, 50
	v := NewVersions()
	s := New(v, []string{"k"}, 80, chunkSize)  // two query-set words: the wide table
	sw := New(v, []string{"k"}, 80, chunkSize) // two words, one entry newer than the probes: checked entries
	qw := s.qw
	vids := make([]int32, entries)
	keys := [][]int64{make([]int64, entries)}
	qsets := make([]uint64, entries*qw)
	for i := range vids {
		vids[i] = int32(i)
		keys[0][i] = int64(i / fanout)
		qsets[i*qw+i%qw] = 1 << uint(i%64)
	}
	s.InsertVec(vids, keys, qsets, qw, 0, nil)
	sw.InsertVec(vids, keys, qsets, qw, 0, nil)
	s1 := New(v, []string{"k"}, 64, chunkSize) // one word: the one-word table
	q1 := make([]uint64, entries)
	for i := range q1 {
		q1[i] = 1 << uint(i%64)
	}
	s1.InsertVec(vids, keys, q1, 1, 0, nil)
	if entries+(runs+1)*batch > chunkSize {
		t.Fatal("insert case would grow the slab; the assertion would be vacuous")
	}

	probeKeys := make([]int64, 300) // hits, misses past entries/fanout, NULLs
	tq := make([]uint64, len(probeKeys)*qw)
	for i := range probeKeys {
		probeKeys[i] = int64(i)
		if i%50 == 7 {
			probeKeys[i] = NullKey
		}
		tq[i*qw+i%qw] = 0x5555555555555555
	}
	ts := v.Now()
	sw.InsertVec(vids[:1], [][]int64{keys[0][:1]}, qsets[:qw], qw, 0, nil)
	unmasked, masked := keyProbe(probeKeys, nil, 0), keyProbe(probeKeys, tq, qw)
	rng := rand.New(rand.NewSource(1))
	slab, wordSlab, slab1 := slabProbe(rng, probeKeys, qw, qw+1, 1), slabProbe(rng, probeKeys, 1, qw, 1), slabProbe(rng, probeKeys, 1, 1, 0)
	dst, qbuf, _ := s.ProbeVecRange(nil, nil, "k", unmasked, ts, 0, qw)
	if len(dst) == 0 {
		t.Fatal("fixture probes match nothing; the assertion would be vacuous")
	}
	tuples := make([]uint64, len(probeKeys)*qw)
	elig := bitset.NewFull(80)
	acc := make([]uint64, qw)
	tuples1 := make([]uint64, len(probeKeys))
	masked1 := keyProbe(probeKeys, tuples1, 1)
	elig1 := bitset.NewFull(64)
	dst1, qbuf1, _ := s1.ProbeVecRange(nil, nil, "k", unmasked, ts, 0, 1)
	insKeys := [][]int64{keys[0][:batch]}
	pvids := make([]int32, len(probeKeys))
	prune := func(s *STeM, tuples []uint64, qw int, elig bitset.Set) func() {
		return func() {
			for i := range pvids {
				pvids[i] = int32(i)
			}
			for i := range tuples {
				tuples[i] = ^uint64(0)
			}
			s.PruneVec(pvids, tuples, qw, elig, 0, qw, "k", probeKeys, acc)
		}
	}

	// The prunes run first: they build the tables the probes then read.
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"PruneVec/table", prune(s, tuples, qw, elig)},
		{"PruneVec/one-word-table", prune(s1, tuples1, 1, elig1)},
		{"ProbeVecRange/table", func() { dst, qbuf, _ = s.ProbeVecRange(dst[:0], qbuf[:0], "k", unmasked, ts, 0, qw) }},
		{"ProbeVecRange/table-word", func() { dst, qbuf, _ = s.ProbeVecRange(dst[:0], qbuf[:0], "k", unmasked, ts, 1, 2) }},
		{"ProbeVecRange/table-masked", func() { dst, qbuf, _ = s.ProbeVecRange(dst[:0], qbuf[:0], "k", masked, ts, 0, qw) }},
		{"ProbeVecRange/table-slab", func() { dst, qbuf, _ = s.ProbeVecRange(dst[:0], qbuf[:0], "k", slab, ts, 0, qw) }},
		{"ProbeVecRange/table-word-slab", func() { dst, qbuf, _ = s.ProbeVecRange(dst[:0], qbuf[:0], "k", wordSlab, ts, 1, 2) }},
		{"ProbeVecRange/newer-entry", func() { dst, qbuf, _ = sw.ProbeVecRange(dst[:0], qbuf[:0], "k", unmasked, ts, 0, qw) }},
		{"ProbeVecRange/newer-entry-masked", func() { dst, qbuf, _ = sw.ProbeVecRange(dst[:0], qbuf[:0], "k", masked, ts, 0, qw) }},
		{"ProbeVecRange/one-word-table", func() { dst1, qbuf1, _ = s1.ProbeVecRange(dst1[:0], qbuf1[:0], "k", unmasked, ts, 0, 1) }},
		{"ProbeVecRange/one-word-table-masked", func() {
			dst1, qbuf1, _ = s1.ProbeVecRange(dst1[:0], qbuf1[:0], "k", masked1, ts, 0, 1)
		}},
		{"ProbeVecRange/one-word-table-slab", func() { dst1, qbuf1, _ = s1.ProbeVecRange(dst1[:0], qbuf1[:0], "k", slab1, ts, 0, 1) }},
		{"InsertVec/in-chunk", func() { s.InsertVec(vids[:batch], insKeys, qsets[:batch*qw], qw, 0, nil) }},
	} {
		if allocs := testing.AllocsPerRun(runs, tc.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f allocs/op with warm buffers, want 0", tc.name, allocs)
		}
		switch tc.name {
		case "ProbeVecRange/table-slab", "ProbeVecRange/table-word-slab":
			if len(dst) == 0 {
				t.Errorf("%s matched nothing; the case is vacuous", tc.name)
			}
		case "ProbeVecRange/one-word-table-slab":
			if len(dst1) == 0 {
				t.Errorf("%s matched nothing; the case is vacuous", tc.name)
			}
		case "ProbeVecRange/table-masked":
			if len(dst) == 0 || !tableServes(s, 0, ts) {
				t.Error("the masked table probe matched nothing or did not read the table as it stood; the table cases are vacuous")
			}
		case "ProbeVecRange/newer-entry-masked":
			if len(dst) == 0 || tableServes(sw, 0, ts) {
				t.Error("the masked probe of the STeM with a newer entry matched nothing or read its table as it stood; the newer-entry cases are vacuous")
			}
		}
	}
	if !tableServes(s1, 0, ts) {
		t.Error("the one-word STeM's probes did not read one table as it stood; its table cases did not cover it")
	}
}

// insBatch × insDomain shape the insert benchmark's vector: 256 tuples over
// 32 distinct keys (fact-table FK style).
const (
	insBatch  = 256
	insDomain = 32
)

// BenchmarkSTeMInsertParallel measures InsertVec under concurrent
// inserters: each op inserts one 256-tuple batch into a shared STeM and
// records its range. The STeM is swapped for a fresh one every few
// thousand batches (inside the timer) to bound memory.
func BenchmarkSTeMInsertParallel(b *testing.B) {
	vids := make([]int32, insBatch)
	keys := [][]int64{make([]int64, insBatch)}
	qsets := make([]uint64, insBatch)
	for i := range vids {
		vids[i] = int32(i)
		keys[0][i] = int64(i % insDomain)
		qsets[i] = ^uint64(0)
	}
	const resetEvery = 4096
	fresh := func() *STeM {
		return New(NewVersions(), []string{"k"}, 64, 0)
	}
	var cur atomic.Pointer[STeM]
	cur.Store(fresh())
	var batches atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := batches.Add(1)
			if n%resetEvery == 0 {
				cur.Store(fresh())
			}
			cur.Load().InsertVec(vids, keys, qsets, 1, 0, nil)
		}
	})
}

// BenchmarkSTeMProbeParallel measures an unmasked probe of a 1024-key batch
// against a unique-key (dimension-table) STeM — the engine's dominant probe
// shape, where the per-key slot lookup dominates. The entries were inserted
// one 64-tuple vector at a time, all stamped before the probes' timestamp,
// so the probe reads its one table without a stamp check, as in a
// long-lived session's steady state.
func BenchmarkSTeMProbeParallel(b *testing.B) {
	const entries = 1 << 16
	v := NewVersions()
	s := New(v, []string{"k"}, 64, 0)
	vids := make([]int32, entries)
	keys := make([]int64, entries)
	qsets := make([]uint64, entries)
	for i := range vids {
		vids[i], keys[i], qsets[i] = int32(i), int64(i), ^uint64(0)
	}
	for i := 0; i < entries; i += 64 {
		s.InsertVec(vids[i:i+64], [][]int64{keys[i : i+64]}, qsets[i:i+64], 1, 0, nil)
	}
	ts := v.Now()
	probeKeys := make([]int64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range probeKeys {
		probeKeys[i] = rng.Int63n(entries)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var dst []VecMatch
		var qbuf []uint64
		for pb.Next() {
			dst, qbuf, _ = s.ProbeVecRange(dst[:0], qbuf[:0], "k", keyProbe(probeKeys, nil, 1), ts, 0, 1)
		}
	})
}

// BenchmarkPruneVec measures the prune kernel on seven shapes, each a
// vector probing a dimension STeM, all answered from the union table:
//
//   - 32words-span5: 1024 tuples against a 65 536-key STeM of a 2048-query
//     batch (32-word query sets) whose eligible queries span five words, as
//     after shape-clustered numbering;
//   - 32words-bits20-span5: the same with every tuple and every entry
//     carrying 20 random query bits, as after batch_scan's grouped filter:
//     the span nearly always empties and the words outside it keep the
//     tuple;
//   - 1word-dim1800: 1000 tuples against a one-word STeM holding 60 % of an
//     1 800-key dimension, probed over the whole dimension, as a stream's
//     lone queries prune;
//   - 1word-lone-dim1800: 1word-dim1800 with a lone query's one bit on
//     every tuple and entry, so the 40 % of tuples whose key misses drop
//     in random order, as in stream_paced's first prune step;
//   - 1word-dim1800-fill10: the same STeM holding 10 % of the dimension, as
//     behind a 10 %-selective filter, so nine keys in ten miss;
//   - 1word-sparse1800: 1word-dim1800 with the keys spread 2³² apart;
//   - 1word-dim1800-deltas63: 1word-dim1800 with the STeM built in 63
//     vectors, each indexed by a probe before the next, which the first
//     (untimed) prune merges into one table.
//
// Dense keys build a direct table, the sparse ones a hashed one; a row
// fails when its table has the other layout. Each iteration resets the
// tuples outside the timed region and prunes the next of pruneSets key
// vectors; kept/key is the share that survives.
func BenchmarkPruneVec(b *testing.B) {
	const entries = 1 << 16
	b.Run("32words-span5", func(b *testing.B) {
		benchPrune(b, benchDim{2048, entries, entries, 1, 0}, 1, 1024, 10, 15)
	})
	b.Run("32words-bits20-span5", func(b *testing.B) {
		benchPrune(b, benchDim{2048, entries, entries, 1, 20}, 1, 1024, 10, 15)
	})
	b.Run("1word-dim1800", func(b *testing.B) {
		benchPrune(b, benchDim{64, 1800, 1800 * 6 / 10, 1, 0}, 1, 1000, 0, 1)
	})
	b.Run("1word-lone-dim1800", func(b *testing.B) {
		benchPrune(b, benchDim{1, 1800, 1800 * 6 / 10, 1, 1}, 1, 1000, 0, 1)
	})
	b.Run("1word-dim1800-fill10", func(b *testing.B) {
		benchPrune(b, benchDim{64, 1800, 180, 1, 0}, 1, 1000, 0, 1)
	})
	b.Run("1word-sparse1800", func(b *testing.B) {
		benchPrune(b, benchDim{64, 1800, 1800 * 6 / 10, 1 << 32, 0}, 1, 1000, 0, 1)
	})
	b.Run("1word-dim1800-deltas63", func(b *testing.B) {
		benchPrune(b, benchDim{64, 1800, 1800 * 6 / 10, 1, 0}, 63, 1000, 0, 1)
	})
}

// benchDim shapes a kernel benchmark's STeM: a qcap-query batch's entries
// keys of a domain-key dimension, key k stored as k·stride, distinct up to
// domain entries and cycling through the same keys past it. With
// bits > 0 each entry, and each tuple benchPrune prunes, carries that many
// random query bits (drawn with repeats) instead of random words (entries)
// or every bit (tuples).
type benchDim struct {
	qcap, domain, entries int
	stride                int64
	bits                  int
}

// draw fills qs, one tuple's or entry's words, with d.bits random query
// bits, or with dense when d.bits is 0.
func (d benchDim) draw(rng *rand.Rand, qs []uint64, dense func() uint64) {
	for w := range qs {
		qs[w] = 0
		if d.bits == 0 {
			qs[w] = dense()
		}
	}
	for range d.bits {
		q := rng.Intn(d.qcap)
		qs[q/64] |= 1 << (q % 64)
	}
}

// build returns the STeM, its entries inserted in deltas vectors of about
// equal size, each indexed by a one-key probe at its stamp before the next,
// and probes keys drawn from the whole domain.
func (d benchDim) build(deltas, probes int) (*STeM, []int64) {
	v := NewVersions()
	s := New(v, []string{"k"}, d.qcap, 0)
	qw := s.qw
	rng := rand.New(rand.NewSource(1))
	vids := make([]int32, d.entries)
	keys := make([]int64, d.entries)
	qsets := make([]uint64, d.entries*qw)
	perm := rng.Perm(d.domain)
	for i := range vids {
		vids[i], keys[i] = int32(i), int64(perm[i%d.domain])*d.stride
		d.draw(rng, qsets[i*qw:(i+1)*qw], func() uint64 { return rng.Uint64() & rng.Uint64() })
	}
	for j := range deltas {
		lo, hi := j*d.entries/deltas, (j+1)*d.entries/deltas
		probeVec(s, "k", keys[:1], s.InsertVec(vids[lo:hi], [][]int64{keys[lo:hi]}, qsets[lo*qw:hi*qw], qw, 0, nil))
	}
	probeKeys := make([]int64, probes)
	for i := range probeKeys {
		probeKeys[i] = rng.Int63n(int64(d.domain)) * d.stride
	}
	return s, probeKeys
}

// checkLayout fails b unless s's first (largest) table has the layout d's
// keys call for: direct for dense keys, hashed for spread ones. It reports
// how many tables the STeM's index holds.
func (d benchDim) checkLayout(b *testing.B, s *STeM) {
	ts := tablesOf(s, 0)
	if want := d.stride == 1; len(ts) == 0 || ts[0].direct != want {
		b.Fatalf("want a first table, direct %t", want)
	}
	b.ReportMetric(float64(len(ts)), "tables")
}

// pruneSets is how many vectors of distinct keys a prune benchmark cycles
// through, so that no branch on which tuples drop repeats within the
// predictor's reach, as a scan's fresh vectors never repeat.
const pruneSets = 64

// benchPrune times PruneVec of vectors of probes keys against d's STeM,
// built in deltas vectors, with the words [lo, hi) eligible, once an
// untimed call has merged the index into one table. Each call takes the
// next of pruneSets key vectors; the tuples are drawn once and copied back
// before each call, outside the timed region.
func benchPrune(b *testing.B, d benchDim, deltas, probes, lo, hi int) {
	s, probeKeys := d.build(deltas, probes*pruneSets)
	qw := s.qw
	elig := make(bitset.Set, qw)
	for w := lo; w < hi; w++ {
		elig[w] = ^uint64(0)
	}
	rng := rand.New(rand.NewSource(2))
	init := make([]uint64, probes*qw)
	for i := 0; i < probes; i++ {
		d.draw(rng, init[i*qw:(i+1)*qw], func() uint64 { return ^uint64(0) })
	}
	tuples := make([]uint64, len(init))
	pvids := make([]int32, probes)
	acc := make([]uint64, qw)
	s.PruneVec(pvids, tuples, qw, elig, lo, hi, "k", probeKeys, acc) // merges the index
	kept := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(tuples, init)
		for j := range pvids {
			pvids[j] = int32(i%pruneSets*probes + j)
		}
		b.StartTimer()
		kept += s.PruneVec(pvids, tuples, qw, elig, lo, hi, "k", probeKeys, acc)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes), "ns/key")
	b.ReportMetric(float64(kept)/float64(b.N*probes), "kept/key")
	d.checkLayout(b, s)
}

// BenchmarkProbeVec measures the probe kernel, serially, on thirteen
// shapes, each a vector probing a dimension STeM:
//
//   - 1word-dim1800: 1000 keys against a one-word STeM holding 1 080 keys
//     (60 %) of an 1 800-key dimension, as a stream's queries probe;
//   - 1word-dim1800-fill10: the same STeM holding 10 % of the dimension,
//     so nine keys in ten miss;
//   - 1word-sparse1800: 1word-dim1800 with the keys spread 2³² apart;
//   - 2words-32k: 1024 keys against a 32 768-key STeM of a 128-query batch
//     (two-word query sets);
//   - 2words-32k-newer: the same with one more entry stamped after the
//     probes' timestamp, so every probe checks each entry's stamp;
//   - 1word-dim1800-fanout4: 1word-dim1800 against every key of the
//     dimension with four entries, so each key reads its entries one by
//     one, the shape of the STeM kernel benchmark/trace.go times;
//   - 1word-dim1800-deltas7, -deltas63 and 2words-32k-deltas63: the STeM
//     built in 7 or 63 vectors, each indexed by a probe before the next,
//     which the size tiers leave in 3 or 6 tables, the most for their
//     counts: each key is looked up in every table;
//   - the slab rows, probed as a join node probes, through ProbeVecRange
//     (benchSlab): 2words-32k-slab is 2words-32k over both words from a
//     three-word slab at offset 1; 1word-fk1800-slab, 2words-fk1800-slab-word
//     and 2words-fk1800-slab probe a dimension STeM holding every one of
//     1 800 keys, each entry with 8 query bits, as a fact table's foreign
//     keys probe its primary keys: a one-word STeM over its word
//     (stream_closed's shape), and a two-word one over its second word and
//     over both (batch_join's).
//
// Every call probes the next of pruneSets key vectors, as a scan's fresh
// vectors do, so that no branch on which keys match repeats within the
// predictor's reach. An untimed probe builds the tables first: direct for
// dense keys, hashed for the sparse ones, and a row fails when its first
// table has the other layout. tables is the length of the list each probe
// reads.
func BenchmarkProbeVec(b *testing.B) {
	b.Run("1word-dim1800", func(b *testing.B) {
		benchProbe(b, benchDim{64, 1800, 1800 * 6 / 10, 1, 0}, 1, 1000, false)
	})
	b.Run("1word-dim1800-fill10", func(b *testing.B) {
		benchProbe(b, benchDim{64, 1800, 180, 1, 0}, 1, 1000, false)
	})
	b.Run("1word-sparse1800", func(b *testing.B) {
		benchProbe(b, benchDim{64, 1800, 1800 * 6 / 10, 1 << 32, 0}, 1, 1000, false)
	})
	b.Run("2words-32k", func(b *testing.B) {
		benchProbe(b, benchDim{128, 1 << 15, 1 << 15, 1, 0}, 1, 1024, false)
	})
	b.Run("2words-32k-newer", func(b *testing.B) {
		benchProbe(b, benchDim{128, 1 << 15, 1 << 15, 1, 0}, 1, 1024, true)
	})
	b.Run("1word-dim1800-deltas7", func(b *testing.B) {
		benchProbe(b, benchDim{64, 1800, 1800 * 6 / 10, 1, 0}, 7, 1000, false)
	})
	b.Run("1word-dim1800-deltas63", func(b *testing.B) {
		benchProbe(b, benchDim{64, 1800, 1800 * 6 / 10, 1, 0}, 63, 1000, false)
	})
	b.Run("1word-dim1800-fanout4", func(b *testing.B) {
		benchProbe(b, benchDim{64, 1800, 4 * 1800, 1, 0}, 1, 1000, false)
	})
	b.Run("2words-32k-deltas63", func(b *testing.B) {
		benchProbe(b, benchDim{128, 1 << 15, 1 << 15, 1, 0}, 63, 1024, false)
	})
	b.Run("2words-32k-slab", func(b *testing.B) {
		benchSlab(b, benchDim{128, 1 << 15, 1 << 15, 1, 0}, 1024, 0, 2, 3, 1)
	})
	b.Run("1word-fk1800-slab", func(b *testing.B) {
		benchSlab(b, benchDim{64, 1800, 1800, 1, 8}, 1000, 0, 1, 1, 0)
	})
	b.Run("2words-fk1800-slab-word", func(b *testing.B) {
		benchSlab(b, benchDim{128, 1800, 1800, 1, 8}, 1000, 1, 2, 2, 1)
	})
	b.Run("2words-fk1800-slab", func(b *testing.B) {
		benchSlab(b, benchDim{128, 1800, 1800, 1, 8}, 1000, 0, 2, 2, 0)
	})
}

// benchSlab times ProbeVecRange over the words [lo, hi) of d's STeM, built
// in one vector, on vectors of probes tuples laid out by slabProbe: each
// tuple's key read through its vID, its words from a stride-word slab at
// offset off, under a random mask, about a quarter of the tuples with no
// bit under it. Each call takes the next of pruneSets vectors, so that no
// branch on which tuples match repeats within the predictor's reach.
// matches/key and probed/key are the shares of tuples matched and probed.
func benchSlab(b *testing.B, d benchDim, probes, lo, hi, stride, off int) {
	s, probeKeys := d.build(1, probes*pruneSets)
	all := slabProbe(rand.New(rand.NewSource(2)), probeKeys, hi-lo, stride, off)
	ps := make([]Probe, pruneSets)
	for j := range ps {
		ps[j] = all
		ps[j].VIDs = all.VIDs[j*probes:][:probes]
		ps[j].Qsets = all.Qsets[j*probes*stride:][:probes*stride]
	}
	ts := s.versions.Now()
	dst, qbuf, _ := s.ProbeVecRange(nil, nil, "k", all, ts, lo, hi) // sizes the buffers
	matched, probed := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		dst, qbuf, n = s.ProbeVecRange(dst[:0], qbuf[:0], "k", ps[i%pruneSets], ts, lo, hi)
		matched += len(dst)
		probed += n
	}
	if matched == 0 {
		b.Fatal("the probes matched nothing")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes), "ns/key")
	b.ReportMetric(float64(matched)/float64(b.N*probes), "matches/key")
	b.ReportMetric(float64(probed)/float64(b.N*probes), "probed/key")
	d.checkLayout(b, s)
}

// benchProbe times unmasked probes over every word of vectors of probes
// keys against d's STeM, built in deltas vectors, and with newer against it
// with one entry more, stamped after the probes' timestamp. Each call takes
// the next of pruneSets key vectors.
func benchProbe(b *testing.B, d benchDim, deltas, probes int, newer bool) {
	s, probeKeys := d.build(deltas, probes*pruneSets)
	ts := s.versions.Now()
	if newer {
		s.InsertVec([]int32{0}, [][]int64{probeKeys[:1]}, make([]uint64, s.qw), s.qw, 0, nil)
	}
	ps := make([]Probe, pruneSets)
	for j := range ps {
		ps[j] = keyProbe(probeKeys[j*probes:][:probes], nil, s.qw)
	}
	dst, qbuf, _ := s.ProbeVecRange(nil, nil, "k", keyProbe(probeKeys, nil, s.qw), ts, 0, s.qw) // builds any table still missing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, qbuf, _ = s.ProbeVecRange(dst[:0], qbuf[:0], "k", ps[i%pruneSets], ts, 0, s.qw)
	}
	if len(dst) == 0 {
		b.Fatal("the probes matched nothing")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*probes), "ns/key")
	for _, t := range tablesOf(s, 0) {
		if t.seen(ts) == newer {
			b.Fatalf("a probe reads a table as it stands: %t; want %t", newer, !newer)
		}
	}
	d.checkLayout(b, s)
}
