package stem

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/roulette-db/roulette/internal/bitset"
)

// insert1 adds one tuple (one key per indexed column) as a one-element
// InsertVec batch and returns its stamp.
func insert1(s *STeM, vid int32, keys []int64, qset bitset.Set) int64 {
	cols := make([][]int64, len(keys))
	for i := range keys {
		cols[i] = keys[i : i+1]
	}
	return s.InsertVec([]int32{vid}, cols, qset, len(qset), 0, nil)
}

// probe1 probes one key as a one-element probeVec batch.
func probe1(s *STeM, col string, key int64, probeTS int64) []match {
	return probeVec(s, col, []int64{key}, probeTS)
}

// semiJoin1 returns the union of the entries matching key, read
// through PruneVec: a tuple carrying every query, each eligible, keeps
// exactly that union, and is dropped when it is empty.
func semiJoin1(s *STeM, col string, key int64) bitset.Set {
	t := bitset.NewFull(64 * s.qw)
	if s.PruneVec([]int32{0}, t, s.qw, bitset.NewFull(64*s.qw), 0, s.qw, col, []int64{key}, make([]uint64, s.qw)) == 0 {
		return bitset.New(64 * s.qw)
	}
	return t
}

func TestInsertProbeBasic(t *testing.T) {
	v := NewVersions()
	s := New(v, []string{"k"}, 4, 16)

	q01 := bitset.FromIDs(4, 0, 1)
	insert1(s, 10, []int64{5}, q01)
	insert1(s, 11, []int64{5}, bitset.FromIDs(4, 2))
	insert1(s, 12, []int64{7}, q01)

	ts := v.Now()
	got := probe1(s, "k", 5, ts)
	if len(got) != 2 {
		t.Fatalf("Probe(5) = %d matches, want 2", len(got))
	}
	vids := map[int32]bool{got[0].VID: true, got[1].VID: true}
	if !vids[10] || !vids[11] {
		t.Errorf("Probe vids = %v", vids)
	}
	if got := probe1(s, "k", 99, ts); len(got) != 0 {
		t.Errorf("Probe(99) = %d matches, want 0", len(got))
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
}

// TestProbeTimestampAtomicity checks that an entry stamped after a probe's
// timestamp stays invisible to that probe, while the semi-join, which reads
// the unions as they stand, sees it as soon as it is recorded.
func TestProbeTimestampAtomicity(t *testing.T) {
	v := NewVersions()
	s := New(v, []string{"k"}, 2, 16)
	insert1(s, 1, []int64{5}, bitset.NewFull(2))
	old := v.Now()
	insert1(s, 2, []int64{6}, bitset.NewFull(2))
	if got := probe1(s, "k", 5, old); len(got) != 1 {
		t.Errorf("probe saw %d entries stamped before it, want 1", len(got))
	}
	if got := probe1(s, "k", 6, old); len(got) != 0 {
		t.Errorf("probe older than the insert saw %d entries", len(got))
	}
	if semiJoin1(s, "k", 6).Count() != 2 {
		t.Error("semi-join missed a recorded entry")
	}
}

// TestStampVisibility pins the stamp rule at one, two and five words: an
// insert's stamp is a fresh tick, drawn after every earlier insert's, and
// its entry is invisible to probes at that stamp and below — its own
// episode's probe included — and visible to a Now drawn after InsertVec
// returns, which reads the table as it stands.
func TestStampVisibility(t *testing.T) {
	for _, qcap := range maintenanceWidths {
		v := NewVersions()
		s := New(v, []string{"k"}, qcap, 0)
		q := bitset.NewFull(qcap)
		before := v.Now()
		a := insert1(s, 1, []int64{5}, q)
		b := insert1(s, 2, []int64{5}, q)
		if a <= before || b <= a || v.Frontier() != b {
			t.Fatalf("%d words: stamps %d then %d after tick %d, clock at %d; want each a fresh tick", s.qw, a, b, before, v.Frontier())
		}
		for _, c := range []struct {
			ts   int64
			want []int32
		}{{before, nil}, {a, nil}, {b, []int32{1}}, {v.Now(), []int32{1, 2}}} {
			var got []int32
			for _, m := range probe1(s, "k", 5, c.ts) {
				got = append(got, m.VID)
			}
			slices.Sort(got)
			if !slices.Equal(got, c.want) {
				t.Fatalf("%d words: a probe at %d (stamps %d and %d) saw %v, want %v", s.qw, c.ts, a, b, got, c.want)
			}
		}
		if ts := v.Now(); !tableServes(s, 0, ts) {
			t.Fatalf("%d words: a probe after both stamps does not read the table as it stands", s.qw)
		}
	}
}

// TestBenchmarkShimsInert pins the calls benchmark/trace.go's stem kernel
// still makes as inert, so the kernel keeps timing the insert and the probe
// alone: Publish moves no clock, Watermark is 0, InsertVec's Slot and
// scratch change no stamp, and ProbeVec with any Slot answers as
// ProbeVecRange over every word at the same timestamp.
func TestBenchmarkShimsInert(t *testing.T) {
	for _, qcap := range maintenanceWidths {
		v := NewVersions()
		s := New(v, []string{"k"}, qcap, 0)
		keys := []int64{3, 5, 3, 9}
		vids := []int32{0, 1, 2, 3}
		qsets := make([]uint64, len(vids)*s.qw)
		for i := range vids {
			qsets[i*s.qw] = 1 << i
		}
		var sc InsertScratch
		a := s.InsertVec(vids[:2], [][]int64{keys[:2]}, qsets[:2*s.qw], s.qw, 7, &sc)
		v.Publish(7)
		if v.Frontier() != a || v.Watermark() != 0 {
			t.Fatalf("%d words: after Publish the clock is at %d (stamp %d) and Watermark is %d; want both inert", s.qw, v.Frontier(), a, v.Watermark())
		}
		if b := s.InsertVec(vids[2:], [][]int64{keys[2:]}, qsets[2*s.qw:], s.qw, 0, nil); b != a+1 {
			t.Fatalf("%d words: the second insert's stamp is %d after %d; want the next tick", s.qw, b, a)
		}
		// Each timestamp sees none, the first two and all four entries.
		for i, ts := range []int64{a, a + 1, v.Now()} {
			want := canonVec(probeVec(s, "k", keys, ts))
			if n := []int{0, 3, 6}[i]; len(want) != n {
				t.Fatalf("%d words: ProbeVecRange at %d found %d matches, want %d", s.qw, ts, len(want), n)
			}
			for _, slot := range []Slot{0, 7, v.Watermark()} {
				ms, qbuf := s.ProbeVec(nil, nil, "k", keys, ts, slot)
				if got := canonVec(matches(ms, qbuf, s.qw)); !slices.Equal(got, want) {
					t.Fatalf("%d words: ProbeVec at %d with slot %d = %v, ProbeVecRange = %v", s.qw, ts, slot, got, want)
				}
			}
		}
	}
}

func TestMultipleIndices(t *testing.T) {
	v := NewVersions()
	s := New(v, []string{"a", "b"}, 2, 16)
	insert1(s, 1, []int64{10, 20}, bitset.NewFull(2))
	insert1(s, 2, []int64{10, 21}, bitset.NewFull(2))
	ts := v.Now()

	if got := probe1(s, "a", 10, ts); len(got) != 2 {
		t.Errorf("Probe(a=10) = %d, want 2", len(got))
	}
	if got := probe1(s, "b", 21, ts); len(got) != 1 || got[0].VID != 2 {
		t.Errorf("Probe(b=21) = %v", got)
	}
	if probe1(s, "zzz", 1, ts) != nil {
		t.Error("probe on unindexed column should return nil dst")
	}
	if !s.HasIndex("a") || s.HasIndex("zzz") {
		t.Error("HasIndex wrong")
	}
}

func TestPruneVecUnions(t *testing.T) {
	v := NewVersions()
	s := New(v, []string{"k"}, 8, 16)
	insert1(s, 1, []int64{3}, bitset.FromIDs(8, 0))
	insert1(s, 2, []int64{3}, bitset.FromIDs(8, 5))
	insert1(s, 3, []int64{4}, bitset.FromIDs(8, 7))

	if got := semiJoin1(s, "k", 3).IDs(); len(got) != 2 || got[0] != 0 || got[1] != 5 {
		t.Errorf("PruneVec kept %v, want [0 5]", got)
	}
}

func TestChunkGrowth(t *testing.T) {
	v := NewVersions()
	s := New(v, []string{"k"}, 2, 16)
	n := chunkSize*2 + 57 // force three chunks
	for i := 0; i < n; i++ {
		insert1(s, int32(i), []int64{int64(i % 97)}, bitset.NewFull(2))
	}
	ts := v.Now()
	total := 0
	for k := int64(0); k < 97; k++ {
		total += len(probe1(s, "k", k, ts))
	}
	if total != n {
		t.Errorf("probed %d entries across all keys, want %d", total, n)
	}
	sets := entrySets(s)
	if q := sets[chunkSize+5]; len(sets) != n || q.Count() != 2 {
		t.Errorf("Each visited %d entries, entry %d with %v; want %d, with 2 queries", len(sets), chunkSize+5, q, n)
	}
}

// TestConcurrentInsertProbePairsOnce models episodes symmetric-joining two
// relations, two goroutines per side: each episode inserts a vector of 64
// tuples into its side's STeM and probes the other STeM with the vector's
// keys at the stamp its insert returned. Every (r, s) key match must be
// produced exactly once across all episodes: by whichever of the two
// tuples' episodes has the later stamp. The STeMs have one word; each probe
// indexes what the other side recorded since the last one, often entries
// stamped after the probe's timestamp, and the run must also read tables as
// they stand while the other side inserts.
func TestConcurrentInsertProbePairsOnce(t *testing.T) {
	const keys, perSide, vec, perSideG = 64, 4096, 64, 2
	var served atomic.Int64
	for trial := 0; trial < 4; trial++ {
		v := NewVersions()
		r := New(v, []string{"k"}, 2, perSide)
		s := New(v, []string{"k"}, 2, perSide)
		qs := bitset.NewFull(2)
		var qslab []uint64 // a vector's query sets: qs for every tuple
		for range vec {
			qslab = append(qslab, qs...)
		}

		type pair struct{ a, b int32 }
		var mu sync.Mutex
		found := make(map[pair]int)

		var rKey, sKey [perSide]int64 // each side's keys by vID
		// run is one goroutine's episodes: the vectors [lo, hi) of its side.
		run := func(mine, other *STeM, keyOf *[perSide]int64, lo, hi int, flip bool, seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := lo; i < hi; i += vec {
				vids := make([]int32, vec)
				ks := make([]int64, vec)
				for j := range vids {
					vids[j] = int32(i + j)
					ks[j] = int64(rng.Intn(keys))
					keyOf[i+j] = ks[j]
				}
				ts := mine.InsertVec(vids, [][]int64{ks}, qslab, len(qs), 0, nil)
				ms := probeVec(other, "k", ks, ts)
				if allSeen(other, 0, ts) {
					served.Add(1)
				}
				mu.Lock()
				for _, m := range ms {
					p := pair{vids[m.In], m.VID}
					if flip {
						p = pair{m.VID, vids[m.In]}
					}
					found[p]++
				}
				mu.Unlock()
			}
		}

		var wg sync.WaitGroup
		half := perSide / perSideG
		for g := 0; g < perSideG; g++ {
			wg.Add(2)
			go func() { defer wg.Done(); run(r, s, &rKey, g*half, (g+1)*half, false, int64(trial)*8+int64(g)) }()
			go func() { defer wg.Done(); run(s, r, &sKey, g*half, (g+1)*half, true, int64(trial)*8+4+int64(g)) }()
		}
		wg.Wait()

		// Verify against ground truth.
		rKeys := map[int64][]int32{}
		sKeys := map[int64][]int32{}
		for vid := int32(0); vid < perSide; vid++ {
			rKeys[rKey[vid]] = append(rKeys[rKey[vid]], vid)
			sKeys[sKey[vid]] = append(sKeys[sKey[vid]], vid)
		}
		want := 0
		for k, rs := range rKeys {
			want += len(rs) * len(sKeys[k])
		}
		if len(found) != want {
			t.Fatalf("trial %d: found %d distinct pairs, want %d", trial, len(found), want)
		}
		for p, c := range found {
			if c != 1 {
				t.Fatalf("trial %d: pair %v produced %d times", trial, p, c)
			}
		}
	}
	episodes := 4 * 2 * perSide / vec
	t.Logf("%d of %d probes read every table as it stood", served.Load(), episodes)
	if served.Load() == 0 {
		t.Fatal("no probe read every table as it stood; the check did not reach the unchecked reads")
	}
}

// TestProbeDuringChunkGrowth races probes against an inserter crossing
// chunk boundaries while the probes' builds drop the chunks they have
// built: a build must never read an entry whose chunk is missing from its
// staging snapshot (builds cover only recorded ranges, whose chunks were
// made before the record and dropped only after every index built them),
// and every match a probe emits must be valid.
func TestProbeDuringChunkGrowth(t *testing.T) {
	const total = chunkSize*3 + 100
	const hotKeys = 8
	v := NewVersions()
	s := New(v, []string{"k"}, 2, 0)
	qs := bitset.NewFull(2)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for vid := int32(0); vid < total; vid++ {
			insert1(s, vid, []int64{int64(vid) % hotKeys}, qs)
		}
	}()

	var vecDst []VecMatch
	var vecQbuf []uint64
	keys := make([]int64, hotKeys)
	for k := range keys {
		keys[k] = int64(k)
	}
	all := keyProbe(keys, nil, s.qw)
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		ts := v.Now()
		for k := int64(0); k < hotKeys; k++ {
			for _, m := range probe1(s, "k", k, ts) {
				if int64(m.VID)%hotKeys != k {
					t.Fatalf("one-key probe of key %d matched vid %d", k, m.VID)
				}
			}
		}
		vecDst, vecQbuf, _ = s.ProbeVecRange(vecDst[:0], vecQbuf[:0], "k", all, ts, 0, s.qw)
		for _, m := range vecDst {
			if int64(m.VID)%hotKeys != keys[m.In] {
				t.Fatalf("batched probe key %d matched vid %d", keys[m.In], m.VID)
			}
		}
	}
	if got := probeVecCount(s, "k", keys, v.Now()); got != total {
		t.Fatalf("final probe saw %d entries, want %d", got, total)
	}
}

// TestEstBytes checks the memory estimate starts at zero, grows with
// inserted chunks and counts the union tables.
func TestEstBytes(t *testing.T) {
	v := NewVersions()
	s := New(v, []string{"k"}, 16, 0)
	base := s.EstBytes()
	if base != 0 {
		t.Fatalf("empty STeM estimate = %d, want 0", base)
	}
	q := bitset.NewFull(16)
	for i := 0; i < chunkSize+1; i++ { // force a second chunk
		insert1(s, int32(i), []int64{int64(i)}, q)
	}
	grown := s.EstBytes()
	if grown <= base {
		t.Fatalf("estimate did not grow: %d -> %d", base, grown)
	}
	perChunk := (grown - base) / 2
	if perChunk < chunkSize*(4+8+8) {
		t.Errorf("per-chunk estimate %d smaller than its columns", perChunk)
	}

	// Once built, a STeM's estimate is its tables': a one-word union table
	// counts its 24-byte slots and, for keys with several entries, a vID, a
	// stamp and a word per entry. Its staging chunk is dropped.
	s1 := New(v, []string{"k"}, 64, 0)
	insert1(s1, 1, []int64{7}, bitset.Set{1})
	insert1(s1, 2, []int64{7}, bitset.Set{2})
	insert1(s1, 3, []int64{8}, bitset.Set{4})
	semiJoin1(s1, "k", 7) // builds the table
	tb := tablesOf(s1, 0)[0]
	if len(tb.vids) != 2 {
		t.Fatalf("fixture: want a table with two side-array entries, got %+v", tb)
	}
	if got, want := s1.EstBytes(), int64(len(tb.slots))*24+2*(4+4+8); got != want {
		t.Errorf("a built one-word STeM estimates %d bytes, want its table's %d", got, want)
	}

	// A two-word table adds, beside its slots, two union words for each of
	// its two keys and for the empty slot, and a vID, a stamp and two words
	// per side-array entry.
	s2 := New(v, []string{"k"}, 128, 0)
	insert1(s2, 1, []int64{7}, bitset.Set{1, 0})
	insert1(s2, 2, []int64{7}, bitset.Set{0, 2})
	insert1(s2, 3, []int64{8}, bitset.Set{4, 4})
	semiJoin1(s2, "k", 7)
	tb = tablesOf(s2, 0)[0]
	if len(tb.vids) != 2 {
		t.Fatalf("fixture: want a two-word table with two side-array entries, got %+v", tb)
	}
	if got, want := s2.EstBytes(), int64(len(tb.slots))*24+3*2*8+2*(4+4+2*8); got != want {
		t.Errorf("a built two-word STeM estimates %d bytes, want its table's %d", got, want)
	}
}
