package stem

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/roulette-db/roulette/internal/bitset"
)

// raceDomain is the number of keys the concurrent-maintenance test draws on
// either column.
const raceDomain = 48

// raceKeyA, raceKeyB and raceWords give an entry of the concurrent-
// maintenance test its keys on "a" and "b" and its query-set words from its
// vID alone, so a concurrent probe can check every match it returns. Some
// keys are NULL on one column but not the other, and one entry in seven has
// an empty query set, which compaction drops. Only even query bits are
// set: the sweeps retire odd ones, which no entry carries.
func raceKeyA(vid int32) int64 {
	if vid%13 == 0 {
		return NullKey
	}
	return int64(vid) % raceDomain
}

func raceKeyB(vid int32) int64 {
	if vid%11 == 0 {
		return NullKey
	}
	return int64(vid*7) % raceDomain
}

func raceWords(vid int32, qw int) []uint64 {
	ws := make([]uint64, qw)
	if vid%7 != 0 {
		ws[int(vid)%qw] = 1 << (2 * (uint(vid) % 32))
	}
	return ws
}

// TestMaintenanceUnderConcurrentInserts checks what the engine once fenced
// inserts for: goroutines insert with the key columns of the view they
// started on — "a" only, even after AddIndex("b") — and probe and prune,
// while AddIndex, sweeps and compactions run, at one, two and five words.
// Every match a probe returns must be an entry of the probed key with its
// own words, and once the inserters finish and a last compaction runs,
// every entry with a bit must be indexed exactly once on every column: the
// probes on "a" and "b" must match the oracle, which lists each entry under
// its key on both columns.
func TestMaintenanceUnderConcurrentInserts(t *testing.T) {
	const inserters, batches, maxBatch = 3, 60, 40
	for _, qcap := range maintenanceWidths {
		v := NewVersions()
		s := New(v, []string{"a"}, qcap, 0)
		qw := s.qw
		var nextVID atomic.Int32
		var progress atomic.Int32
		probeKeys := []int64{NullKey}
		for k := int64(0); k <= raceDomain; k++ {
			probeKeys = append(probeKeys, k)
		}

		// check reports a probe match that is not an entry of the probed
		// key on col with its own words.
		check := func(col string, ms []VecMatch, qbuf []uint64) bool {
			key := raceKeyA
			if col == "b" {
				key = raceKeyB
			}
			for k, m := range ms {
				if key(m.VID) != probeKeys[m.In] || !slices.Equal(qbuf[k*qw:(k+1)*qw], raceWords(m.VID, qw)) {
					t.Errorf("%d words: probe on %s of key %d matched vid %d with words %x", qw, col, probeKeys[m.In], m.VID, qbuf[k*qw:(k+1)*qw])
					return false
				}
			}
			return true
		}

		var wg sync.WaitGroup
		insertersDone := make(chan struct{})
		for g := 0; g < inserters; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				var ms []VecMatch
				var qbuf []uint64
				all := keyProbe(probeKeys, nil, qw)
				for b := 0; b < batches; b++ {
					n := 1 + rng.Intn(maxBatch)
					vid0 := nextVID.Add(int32(n)) - int32(n)
					vids, keys, qsets := make([]int32, n), make([]int64, n), make([]uint64, 0, n*qw)
					for j := range vids {
						vids[j] = vid0 + int32(j)
						keys[j] = raceKeyA(vids[j])
						qsets = append(qsets, raceWords(vids[j], qw)...)
					}
					s.InsertVec(vids, [][]int64{keys}, qsets, qw, 0, nil)
					if progress.Add(1)%3 != 0 {
						continue // leave ranges recorded for AddIndex and the sweeps to build
					}
					ts := v.Now()
					for _, col := range []string{"a", "b"} {
						if !s.HasIndex(col) {
							continue
						}
						ms, qbuf, _ = s.ProbeVecRange(ms[:0], qbuf[:0], col, all, ts, 0, qw)
						if !check(col, ms, qbuf) {
							return
						}
					}
					// A prune only keeps or drops bits of its own tuples.
					tuples := make([]uint64, len(probeKeys)*qw)
					for i := range tuples {
						tuples[i] = rng.Uint64()
					}
					orig := slices.Clone(tuples)
					pruneTuples(t, s, tuples, qw, bitset.NewFull(qcap), 0, qw, "a", probeKeys, make([]uint64, qw))
					for i := range tuples {
						if tuples[i]&^orig[i] != 0 {
							t.Errorf("%d words: a prune set bits its tuple did not have", qw)
							return
						}
					}
				}
			}(int64(qcap*10 + g))
		}
		maintDone := make(chan struct{})
		go func() {
			defer close(maintDone)
			odd := make(bitset.Set, qw)
			for w := range odd {
				odd[w] = 0xaaaaaaaaaaaaaaaa
			}
			// No build before AddIndex but the inserters' own, so that it
			// finds ranges recorded and not built.
			for progress.Load() < inserters*batches/3 {
				select {
				case <-insertersDone:
					return // every inserter failed early
				default:
					runtime.Gosched()
				}
			}
			s.AddIndex("b", raceKeyB)
			for i := 0; ; i++ {
				select {
				case <-insertersDone:
					return
				default:
				}
				if i%2 == 0 {
					s.CompactLive()
				} else {
					s.SweepIndex(odd)
				}
			}
		}()
		wg.Wait()
		close(insertersDone)
		<-maintDone
		if t.Failed() {
			return
		}

		// Every entry with a bit, exactly once under its key on each column.
		s.CompactLive()
		o := newOracle(2)
		for vid := int32(0); vid < nextVID.Load(); vid++ {
			if ws := raceWords(vid, qw); !bitset.Set(ws).Empty() {
				o.insert([]int32{vid}, [][]int64{{raceKeyA(vid)}, {raceKeyB(vid)}}, ws, qw, 0) // stamped before any later probe
			}
		}
		ts := v.Now()
		for ki, col := range []string{"a", "b"} {
			if !checkProbe(t, s, o, ki, col, probeKeys, ts) {
				t.Fatalf("%d words: after the inserters, a probe on %s diverged from the oracle", qw, col)
			}
			if !checkPrune(t, rand.New(rand.NewSource(int64(qcap))), s, o, ki, col, probeKeys) {
				t.Fatalf("%d words: after the inserters, a prune on %s diverged from the oracle", qw, col)
			}
		}
		if n := s.Len(); n != o.count(0) {
			t.Fatalf("%d words: Len = %d after the last compaction, want the %d entries with a bit", qw, n, o.count(0))
		}
	}
}

// count returns the oracle's entries on column ki, NULL-keyed ones
// included.
func (o *oracle) count(ki int) int {
	n := 0
	for _, es := range o.byKey[ki] {
		n += len(es)
	}
	return n
}

// TestBuiltStemHoldsNoChunk inserts three and a half chunks of entries
// into a STeM of two indexes. While one index has not built them, every
// chunk stays; once both have, none does, the last, partly reserved one
// included, and the next insert stages into its number again. That chunk
// stays while one index has built a record over it and the other has not.
func TestBuiltStemHoldsNoChunk(t *testing.T) {
	v := NewVersions()
	s := New(v, []string{"a", "b"}, 64, 0)
	n := 3*chunkSize + chunkSize/2
	vids, a, b, qs := make([]int32, n), make([]int64, n), make([]int64, n), make([]uint64, n)
	for i := range vids {
		vids[i], a[i], b[i], qs[i] = int32(i), int64(i%100), int64(i%7), 1
	}
	for lo := 0; lo < n; lo += 1000 {
		hi := min(lo+1000, n)
		s.InsertVec(vids[lo:hi], [][]int64{a[lo:hi], b[lo:hi]}, qs[lo:hi], 1, 0, nil)
	}
	if c := stagedChunks(s); c != 4 {
		t.Fatalf("staged chunks = %d before any build, want 4", c)
	}
	ts := v.Now()
	probe1(s, "a", 1, ts)
	if c := stagedChunks(s); c != 4 {
		t.Fatalf("staged chunks = %d with index b unbuilt, want 4", c)
	}
	probe1(s, "b", 1, ts)
	if c := stagedChunks(s); c != 0 || s.EstBytes() != tablesOf(s, 0)[0].bytes()+tablesOf(s, 1)[0].bytes() {
		t.Fatalf("staged chunks = %d once every index has built every entry, want 0 and the tables' bytes alone", c)
	}
	s.InsertVec([]int32{int32(n)}, [][]int64{{7}, {0}}, []uint64{2}, 1, 0, nil)
	if c := stagedChunks(s); c != 1 {
		t.Fatalf("staged chunks = %d after one more insert, want 1", c)
	}
	if got := probeVecCount(s, "b", []int64{0, 1, 2, 3, 4, 5, 6}, v.Now()); got != n+1 {
		t.Fatalf("probe on b found %d entries, want %d", got, n+1)
	}

	// A chunk stays while a record over it is built by one index only: a
	// builds the first of two records, b both, so the trim after b's build
	// drops the first and must keep the chunk the second is staged in.
	s.InsertVec([]int32{int32(n + 1)}, [][]int64{{1000}, {0}}, []uint64{2}, 1, 0, nil)
	probe1(s, "a", 1000, v.Now())
	s.InsertVec([]int32{int32(n + 2)}, [][]int64{{1001}, {0}}, []uint64{2}, 1, 0, nil)
	probe1(s, "b", 0, v.Now())
	if c := stagedChunks(s); c != 1 {
		t.Fatalf("staged chunks = %d with a record only index b has built, want 1", c)
	}
	if got := probe1(s, "a", 1001, v.Now()); len(got) != 1 || got[0].VID != int32(n+2) {
		t.Fatalf("probe on a of key 1001 = %v, want vid %d", got, n+2)
	}
}

// TestChurnKeepsStagingBounded runs many rounds of a stream's life on one
// STeM: inserts, probes, a sweep retiring the round's
// queries and a compaction. Entry positions grow without bound across the
// rounds, but the staging window and the STeM's bytes must not: after each
// round the STeM is empty and holds no chunk, and no round's peak exceeds
// the first round's.
func TestChurnKeepsStagingBounded(t *testing.T) {
	const rounds, perRound, vec = 200, 3000, 250
	v := NewVersions()
	s := New(v, []string{"k"}, 128, 0)
	qw := s.qw
	var firstPeak int64
	for r := 0; r < rounds; r++ {
		q := r % (64 * qw)
		for lo := 0; lo < perRound; lo += vec {
			vids, keys, qsets := make([]int32, vec), make([]int64, vec), make([]uint64, vec*qw)
			for j := range vids {
				vids[j], keys[j] = int32(lo+j), int64((lo+j)%500)
				qsets[j*qw+q/64] = 1 << (q % 64)
			}
			probe1(s, "k", int64(lo%500), s.InsertVec(vids, [][]int64{keys}, qsets, qw, 0, nil))
		}
		peak := s.EstBytes()
		if r == 0 {
			firstPeak = peak
		} else if peak > firstPeak {
			t.Fatalf("round %d: STeM bytes %d at the round's end, above the first round's %d", r, peak, firstPeak)
		}
		if dead := s.SweepIndex(bitset.FromIDs(64*qw, q)); dead != perRound {
			t.Fatalf("round %d: SweepIndex found %d dead entries, want %d", r, dead, perRound)
		}
		if live := s.CompactLive(); live != 0 {
			t.Fatalf("round %d: %d entries left after the compaction, want 0", r, live)
		}
		if g := s.stage.Load(); len(g.chunks) != 0 || s.EstBytes() != 0 {
			t.Fatalf("round %d: %d chunk slots (from chunk %d) and %d bytes after the compaction, want none", r, len(g.chunks), g.first, s.EstBytes())
		}
	}
	if c := s.count.Load(); c < rounds*perRound {
		t.Fatalf("positions reached %d, want at least %d", c, rounds*perRound)
	}
}
