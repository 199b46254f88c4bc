package stem

import (
	"testing"

	"github.com/roulette-db/roulette/internal/bitset"
)

// gcFixture builds a STeM with n entries alternating between query sets
// {0} and {1}: key i, vid i, all published in slot 0.
func gcFixture(t *testing.T, n int) (*Versions, *STeM) {
	t.Helper()
	v := NewVersions()
	s := New(v, []string{"k"}, 2, n)
	for i := 0; i < n; i++ {
		insert1(s, int32(i), []int64{int64(i)}, bitset.FromIDs(2, i%2), 0)
	}
	v.Publish(0)
	return v, s
}

func TestSweepChunkCountsDead(t *testing.T) {
	_, s := gcFixture(t, 100)
	retired := bitset.FromIDs(2, 0)
	if dead := s.SweepChunk(0, retired); dead != 50 {
		t.Fatalf("SweepChunk dead = %d, want 50", dead)
	}
	// A second sweep of the same retired set reports the same entries dead
	// (cumulative count) and changes nothing else.
	if dead := s.SweepChunk(0, retired); dead != 50 {
		t.Errorf("repeated SweepChunk dead = %d, want 50", dead)
	}
	// Out-of-range chunks are a no-op.
	if dead := s.SweepChunk(5, retired); dead != 0 {
		t.Errorf("SweepChunk(5) = %d, want 0", dead)
	}
	// Survivors keep their bits: every odd entry still belongs to query 1.
	for idx := 0; idx < 100; idx++ {
		_, qs := s.Entry(idx)
		if idx%2 == 1 && !qs.Contains(1) {
			t.Fatalf("entry %d lost its live query bit", idx)
		}
		if qs.Contains(0) {
			t.Fatalf("entry %d still carries retired query 0", idx)
		}
	}
}

// TestNeedsShrinkEntryFreeGrownBuckets: a STeM whose buckets were grown for
// a rescan that built nothing needs a shrink, and CompactLive restores the
// empty STeM's footprint; a fresh or populated STeM does not.
func TestNeedsShrinkEntryFreeGrownBuckets(t *testing.T) {
	s := New(NewVersions(), []string{"k"}, 2, 0)
	empty := s.EstBytes()
	if s.NeedsShrink() {
		t.Fatal("fresh STeM reports NeedsShrink")
	}
	s.EnsureBuckets(10000)
	if !s.NeedsShrink() {
		t.Fatal("entry-free STeM with grown buckets does not report NeedsShrink")
	}
	if s.CompactLive(); s.NeedsShrink() || s.EstBytes() != empty {
		t.Fatalf("after CompactLive: NeedsShrink=%v, EstBytes %d, want %d", s.NeedsShrink(), s.EstBytes(), empty)
	}
	_, full := gcFixture(t, 100)
	if full.NeedsShrink() {
		t.Error("populated STeM reports NeedsShrink")
	}
}

func TestCompactLiveDropsDeadAndShrinks(t *testing.T) {
	v, s := gcFixture(t, 100)
	before := s.EstBytes()
	s.SweepChunk(0, bitset.FromIDs(2, 0))

	if live := s.CompactLive(); live != 50 {
		t.Fatalf("CompactLive = %d live, want 50", live)
	}
	if s.Len() != 50 {
		t.Errorf("Len = %d after compaction, want 50", s.Len())
	}
	if after := s.EstBytes(); after > before {
		t.Errorf("EstBytes grew across compaction: %d -> %d", before, after)
	}

	// Probing must still find every surviving entry through the rebuilt
	// buckets, and none of the dropped ones.
	ts := v.Now()
	for k := int64(0); k < 100; k++ {
		got := probe1(s, "k", k, ts)
		if k%2 == 1 {
			if len(got) != 1 || got[0].VID != int32(k) {
				t.Fatalf("Probe(%d) = %v after compaction, want vid %d", k, got, k)
			}
			if !got[0].QSet.Contains(1) {
				t.Fatalf("Probe(%d) lost query attribution", k)
			}
		} else if len(got) != 0 {
			t.Fatalf("Probe(%d) = %v, want dead entry gone", k, got)
		}
	}
}

func TestCompactLiveEmptiesToFloor(t *testing.T) {
	_, s := gcFixture(t, 2*chunkSize) // two full chunks
	if s.NumChunks() != 2 {
		t.Fatalf("NumChunks = %d, want 2", s.NumChunks())
	}
	before := s.EstBytes()
	retired := bitset.FromIDs(2, 0, 1)
	for ci := 0; ci < s.NumChunks(); ci++ {
		s.SweepChunk(ci, retired)
	}
	if live := s.CompactLive(); live != 0 {
		t.Fatalf("CompactLive = %d, want 0", live)
	}
	if s.NumChunks() != 0 || s.Len() != 0 {
		t.Errorf("chunks=%d len=%d after full retirement, want 0,0", s.NumChunks(), s.Len())
	}
	if after := s.EstBytes(); after*10 > before {
		t.Errorf("EstBytes = %d after full retirement (was %d), want >=90%% reclaimed", after, before)
	}
}

func TestEnsureBucketsRegrowsChains(t *testing.T) {
	v, s := gcFixture(t, 100)
	s.SweepChunk(0, bitset.FromIDs(2, 0))
	s.CompactLive() // buckets shrink to fit 50 live entries

	// Entries are about to arrive faster than the shrunk buckets fit; the
	// engine grows the buckets before they are built so chains stay short.
	s.EnsureBuckets(4096)
	ts := v.Now()
	for k := int64(1); k < 100; k += 2 {
		if got := probe1(s, "k", k, ts); len(got) != 1 {
			t.Fatalf("Probe(%d) = %v after growth, want 1 match", k, got)
		}
	}
	// Smaller entry counts never shrink (growth is one-way).
	s.EnsureBuckets(1)
	if got := probe1(s, "k", 1, ts); len(got) != 1 {
		t.Errorf("Probe(1) broken after no-op EnsureBuckets")
	}
}

func TestAddIndexDerivesExistingEntries(t *testing.T) {
	v, s := gcFixture(t, 64)
	// Index a second column whose key is derived from the vid (stand-in
	// for a base-table column lookup): k2 = vid / 2, so each k2 value is
	// shared by two entries.
	s.AddIndex("k2", func(vid int32) int64 { return int64(vid / 2) })
	if !s.HasIndex("k2") {
		t.Fatal("AddIndex did not register the column")
	}
	ts := v.Now()
	if got := probe1(s, "k2", 3, ts); len(got) != 2 {
		t.Fatalf("Probe(k2=3) = %d matches, want 2 (vids 6,7)", len(got))
	}
	// Idempotent: re-adding the column changes nothing.
	s.AddIndex("k2", func(vid int32) int64 { return -1 })
	if got := probe1(s, "k2", 3, ts); len(got) != 2 {
		t.Errorf("repeated AddIndex broke the index")
	}
	// New inserts supply both keys and land in both indexes (a fresh slot:
	// slots are published at most once, after all their inserts).
	insert1(s, 200, []int64{200, 100}, bitset.FromIDs(2, 1), 1)
	v.Publish(1)
	ts = v.Now()
	if got := probe1(s, "k2", 100, ts); len(got) != 1 || got[0].VID != 200 {
		t.Errorf("Probe(k2=100) = %v, want the new entry", got)
	}
}
