package stem

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/roulette-db/roulette/internal/bitset"
)

// insert1 adds one tuple (one key per indexed column) as a one-element
// InsertVec batch.
func insert1(s *STeM, vid int32, keys []int64, qset bitset.Set, slot Slot) {
	cols := make([][]int64, len(keys))
	for i := range keys {
		cols[i] = keys[i : i+1]
	}
	s.InsertVec([]int32{vid}, cols, qset, len(qset), slot, nil)
}

// probe1 probes one key as a one-element ProbeVec batch, every entry paying
// the per-slot visibility check (wm 0).
func probe1(s *STeM, col string, key int64, probeTS int64) []match {
	return probeVec(s, col, []int64{key}, probeTS, 0)
}

// semiJoin1 returns the union of the published entries matching key, read
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
	insert1(s, 10, []int64{5}, q01, 0)
	insert1(s, 11, []int64{5}, bitset.FromIDs(4, 2), 0)
	insert1(s, 12, []int64{7}, q01, 0)
	v.Publish(0)

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

func TestProbeTimestampAtomicity(t *testing.T) {
	v := NewVersions()
	s := New(v, []string{"k"}, 2, 16)

	insert1(s, 1, []int64{5}, bitset.NewFull(2), 0)
	_, ts0 := v.Publish(0)

	// A probe with a timestamp equal to or older than the publish time must
	// not see the entry ("only matches with older timestamps").
	if got := probe1(s, "k", 5, ts0); len(got) != 0 {
		t.Errorf("probe at publish ts saw %d entries", len(got))
	}
	if got := probe1(s, "k", 5, v.Now()); len(got) != 1 {
		t.Errorf("probe with newer ts saw %d entries, want 1", len(got))
	}

	// An unpublished vector must stay invisible to the semi-join, which
	// skips unpublished slots without sealing them.
	insert1(s, 2, []int64{6}, bitset.NewFull(2), 1)
	if !semiJoin1(s, "k", 6).Empty() {
		t.Error("semi-join saw unpublished entry")
	}
	v.Publish(1)
	if semiJoin1(s, "k", 6).Count() != 2 {
		t.Error("semi-join missed published entry")
	}
}

func TestMultipleIndices(t *testing.T) {
	v := NewVersions()
	s := New(v, []string{"a", "b"}, 2, 16)
	insert1(s, 1, []int64{10, 20}, bitset.NewFull(2), 0)
	insert1(s, 2, []int64{10, 21}, bitset.NewFull(2), 0)
	v.Publish(0)
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
	insert1(s, 1, []int64{3}, bitset.FromIDs(8, 0), 0)
	insert1(s, 2, []int64{3}, bitset.FromIDs(8, 5), 0)
	insert1(s, 3, []int64{4}, bitset.FromIDs(8, 7), 0)
	v.Publish(0)

	if got := semiJoin1(s, "k", 3).IDs(); len(got) != 2 || got[0] != 0 || got[1] != 5 {
		t.Errorf("PruneVec kept %v, want [0 5]", got)
	}
}

func TestChunkGrowth(t *testing.T) {
	v := NewVersions()
	s := New(v, []string{"k"}, 2, 16)
	n := chunkSize*2 + 57 // force three chunks
	for i := 0; i < n; i++ {
		insert1(s, int32(i), []int64{int64(i % 97)}, bitset.NewFull(2), 0)
	}
	v.Publish(0)
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

// TestConcurrentInsertProbePairsOnce models two episodes symmetric-joining:
// every (r, s) key match must be produced exactly once across the two sides.
// The STeMs have one word; each probe indexes what the other side recorded
// since the last one, often entries still unpublished, and the run must
// also read tables as they stand while the other side inserts.
func TestConcurrentInsertProbePairsOnce(t *testing.T) {
	const keys = 64
	const perSide = 4096
	var served atomic.Int64
	for trial := 0; trial < 4; trial++ {
		v := NewVersions()
		r := New(v, []string{"k"}, 2, perSide)
		s := New(v, []string{"k"}, 2, perSide)
		qs := bitset.NewFull(2)

		type pair struct{ a, b int32 }
		var mu sync.Mutex
		found := make(map[pair]int)

		var rKey, sKey [perSide]int64 // each side's keys by vID
		run := func(mine, other *STeM, keyOf *[perSide]int64, slotBase Slot, flip bool, seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perSide; i += 64 {
				slot := slotBase + Slot(i/64)
				for j := 0; j < 64; j++ {
					vid := int32(i + j)
					keyOf[vid] = int64(rng.Intn(keys))
					insert1(mine, vid, []int64{keyOf[vid]}, qs, slot)
				}
				_, ts := v.Publish(slot)
				// Probe the other side for each of my just-inserted keys.
				for j := 0; j < 64; j++ {
					vid := int32(i + j)
					ms := probe1(other, "k", keyOf[vid], ts)
					if allSeen(other, 0, ts, 0) {
						served.Add(1)
					}
					for _, m := range ms {
						p := pair{vid, m.VID}
						if flip {
							p = pair{m.VID, vid}
						}
						mu.Lock()
						found[p]++
						mu.Unlock()
					}
				}
			}
		}

		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); run(r, s, &rKey, 0, false, int64(trial)*2+1) }()
		go func() { defer wg.Done(); run(s, r, &sKey, 1<<20, true, int64(trial)*2+2) }()
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
	t.Logf("%d of %d probes read every table as it stood", served.Load(), 4*2*perSide)
	if served.Load() == 0 {
		t.Fatal("no probe read every table as it stood; the check did not reach the unchecked reads")
	}
}

// TestProbeSealBindsRejection pins the probe-side seal protocol: a probe
// that rejects an unpublished slot seals it, so the slot's later Publish
// must draw a timestamp newer than the rejecting probe's — the rejection
// can never turn out wrong after the fact (the draw-to-store window).
func TestProbeSealBindsRejection(t *testing.T) {
	v := NewVersions()
	s := New(v, []string{"k"}, 2, 16)

	insert1(s, 1, []int64{7}, bitset.NewFull(2), 0)
	probeTS := v.Now()
	if got := probe1(s, "k", 7, probeTS); len(got) != 0 {
		t.Fatalf("probe saw unpublished entry: %v", got)
	}
	if v.Watermark() != 0 {
		t.Fatalf("watermark advanced past sealed slot: %d", v.Watermark())
	}
	_, ts := v.Publish(0)
	if ts <= probeTS {
		t.Fatalf("publish after seal drew ts %d <= rejecting probeTS %d", ts, probeTS)
	}
	// A re-publish returns the existing timestamp paired with watermark 0:
	// ts was drawn before the current watermark was read, so any other
	// watermark would let a probe at ts skip its own slot's check.
	if wm, again := v.Publish(0); again != ts || wm != 0 {
		t.Fatalf("re-publish = (wm %d, ts %d), want (0, %d)", wm, again, ts)
	}
	if v.Watermark() != 1 {
		t.Fatalf("watermark = %d after publish, want 1", v.Watermark())
	}
	if got := probe1(s, "k", 7, v.Now()); len(got) != 1 {
		t.Fatalf("published entry invisible to newer probe")
	}
}

// TestVisibleAtPublishRaceInvariant hammers visibleAt against concurrent
// Publish calls and checks the binding-rejection invariant: whenever a
// probe rejects a slot, the slot's final published timestamp must be newer
// than the probe's; whenever it accepts, older.
func TestVisibleAtPublishRaceInvariant(t *testing.T) {
	const slots = 2048
	const probers = 4
	v := NewVersions()

	type verdict struct {
		slot    Slot
		probeTS int64
		visible bool
	}
	verdicts := make([][]verdict, probers)
	var wg sync.WaitGroup
	wg.Add(probers + 1)
	go func() {
		defer wg.Done()
		for n := Slot(0); n < slots; n++ {
			v.Publish(n)
		}
	}()
	for p := 0; p < probers; p++ {
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for i := 0; i < slots*2; i++ {
				n := Slot(rng.Intn(slots))
				probeTS := v.Now()
				verdicts[p] = append(verdicts[p], verdict{n, probeTS, v.visibleAt(n, probeTS)})
			}
		}(p)
	}
	wg.Wait()

	for p, vs := range verdicts {
		for _, vd := range vs {
			ts := v.tryGet(vd.slot)
			if ts == 0 {
				t.Fatalf("slot %d never published", vd.slot)
			}
			if vd.visible && ts >= vd.probeTS {
				t.Fatalf("prober %d: accepted slot %d with final ts %d >= probeTS %d", p, vd.slot, ts, vd.probeTS)
			}
			if !vd.visible && ts < vd.probeTS {
				t.Fatalf("prober %d: rejected slot %d whose final ts %d < probeTS %d", p, vd.slot, ts, vd.probeTS)
			}
		}
	}
	if v.Watermark() != slots {
		t.Fatalf("watermark = %d, want %d", v.Watermark(), slots)
	}
}

// TestProbeDuringChunkGrowth races probes against an inserter crossing
// chunk boundaries while the probes' builds drop the chunks they have
// built: a build must never read an entry whose chunk is missing from its
// staging snapshot (builds cover only recorded ranges, whose chunks were
// made before the record and dropped only after every index built them),
// and every match a probe emits must be published and valid.
func TestProbeDuringChunkGrowth(t *testing.T) {
	const total = chunkSize*3 + 100
	const hotKeys = 8
	v := NewVersions()
	s := New(v, []string{"k"}, 2, 0)
	qs := bitset.NewFull(2)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i += 64 {
			slot := Slot(i / 64)
			for j := 0; j < 64 && i+j < total; j++ {
				vid := int32(i + j)
				insert1(s, vid, []int64{int64(vid) % hotKeys}, qs, slot)
			}
			v.Publish(slot)
		}
	}()

	var vecDst []VecMatch
	var vecQbuf []uint64
	keys := make([]int64, hotKeys)
	for k := range keys {
		keys[k] = int64(k)
	}
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		wm := v.Watermark()
		ts := v.Now()
		for k := int64(0); k < hotKeys; k++ {
			for _, m := range probe1(s, "k", k, ts) {
				if int64(m.VID)%hotKeys != k {
					t.Fatalf("one-key probe of key %d matched vid %d", k, m.VID)
				}
			}
		}
		vecDst, vecQbuf = s.ProbeVec(vecDst[:0], vecQbuf[:0], "k", keys, ts, wm)
		for _, m := range vecDst {
			if int64(m.VID)%hotKeys != keys[m.In] {
				t.Fatalf("batched probe key %d matched vid %d", keys[m.In], m.VID)
			}
		}
	}
	if got := probeVecCount(s, "k", keys, v.Now(), v.Watermark()); got != total {
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
		insert1(s, int32(i), []int64{int64(i)}, q, 0)
	}
	grown := s.EstBytes()
	if grown <= base {
		t.Fatalf("estimate did not grow: %d -> %d", base, grown)
	}
	perChunk := (grown - base) / 2
	if perChunk < chunkSize*(4+4+8+8) {
		t.Errorf("per-chunk estimate %d smaller than its columns", perChunk)
	}

	// Once built, a STeM's estimate is its tables': a one-word union table
	// counts its 24-byte slots and, for keys with several entries, a vID, a
	// slot and a word per entry. Its staging chunk is dropped.
	s1 := New(v, []string{"k"}, 64, 0)
	insert1(s1, 1, []int64{7}, bitset.Set{1}, 1)
	insert1(s1, 2, []int64{7}, bitset.Set{2}, 1)
	insert1(s1, 3, []int64{8}, bitset.Set{4}, 1)
	v.Publish(1)
	semiJoin1(s1, "k", 7) // builds the table
	tb := tablesOf(s1, 0)[0]
	if len(tb.vids) != 2 {
		t.Fatalf("fixture: want a table with two side-array entries, got %+v", tb)
	}
	if got, want := s1.EstBytes(), int64(len(tb.slots))*24+2*(4+4+8); got != want {
		t.Errorf("a built one-word STeM estimates %d bytes, want its table's %d", got, want)
	}

	// A two-word table adds, beside its slots, two union words for each of
	// its two keys and for the empty slot, and a vID, a slot and two words
	// per side-array entry.
	s2 := New(v, []string{"k"}, 128, 0)
	insert1(s2, 1, []int64{7}, bitset.Set{1, 0}, 2)
	insert1(s2, 2, []int64{7}, bitset.Set{0, 2}, 2)
	insert1(s2, 3, []int64{8}, bitset.Set{4, 4}, 2)
	v.Publish(2)
	semiJoin1(s2, "k", 7)
	tb = tablesOf(s2, 0)[0]
	if len(tb.vids) != 2 {
		t.Fatalf("fixture: want a two-word table with two side-array entries, got %+v", tb)
	}
	if got, want := s2.EstBytes(), int64(len(tb.slots))*24+3*2*8+2*(4+4+2*8); got != want {
		t.Errorf("a built two-word STeM estimates %d bytes, want its table's %d", got, want)
	}
}
