package stem

import (
	"slices"
	"testing"

	"github.com/roulette-db/roulette/internal/bitset"
)

// gcFixture builds a STeM with n entries alternating between query sets
// {0} and {1}: key i, vid i.
func gcFixture(t *testing.T, n int) (*Versions, *STeM) {
	t.Helper()
	v := NewVersions()
	s := New(v, []string{"k"}, 2, 0)
	for i := 0; i < n; i++ {
		insert1(s, int32(i), []int64{int64(i)}, bitset.FromIDs(2, i%2))
	}
	return v, s
}

// stagedChunks returns how many staging chunks s holds.
func stagedChunks(s *STeM) int {
	n := 0
	for _, c := range s.stage.Load().chunks {
		if c != nil {
			n++
		}
	}
	return n
}

// entrySets returns every entry's query set by vID (Each).
func entrySets(s *STeM) map[int32]bitset.Set {
	m := map[int32]bitset.Set{}
	s.Each(func(vid int32, qs bitset.Set) { m[vid] = qs })
	return m
}

func TestSweepIndexCountsDead(t *testing.T) {
	_, s := gcFixture(t, 100)
	retired := bitset.FromIDs(2, 0)
	if dead := s.SweepIndex(retired); dead != 50 {
		t.Fatalf("SweepIndex dead = %d, want 50", dead)
	}
	// A second sweep of the same retired set reports the same entries dead
	// (cumulative count) and changes nothing else.
	if dead := s.SweepIndex(retired); dead != 50 {
		t.Errorf("repeated SweepIndex dead = %d, want 50", dead)
	}
	// Survivors keep their bits: every odd entry still belongs to query 1.
	sets := entrySets(s)
	if len(sets) != 100 {
		t.Fatalf("Each visited %d entries, want 100", len(sets))
	}
	for vid, qs := range sets {
		if vid%2 == 1 && !qs.Contains(1) {
			t.Fatalf("entry %d lost its live query bit", vid)
		}
		if qs.Contains(0) {
			t.Fatalf("entry %d still carries retired query 0", vid)
		}
	}
}

func TestCompactLiveDropsDeadAndShrinks(t *testing.T) {
	v, s := gcFixture(t, 100)
	s.SweepIndex(bitset.FromIDs(2, 0))
	before := s.EstBytes()

	if live := s.CompactLive(); live != 50 {
		t.Fatalf("CompactLive = %d live, want 50", live)
	}
	if s.Len() != 50 {
		t.Errorf("Len = %d after compaction, want 50", s.Len())
	}
	if after := s.EstBytes(); after > before {
		t.Errorf("EstBytes grew across compaction: %d -> %d", before, after)
	}

	// Probing must still find every surviving entry through the merged
	// table, and none of the dropped ones.
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

// TestCompactLiveEmptiesToFloor retires every query of a STeM of two and a
// half chunks: the sweep builds every entry, which drops every chunk, and
// the compaction drops every entry, so the STeM holds nothing. An insert
// after it stages into the last chunk's number again and is found.
func TestCompactLiveEmptiesToFloor(t *testing.T) {
	v, s := gcFixture(t, 2*chunkSize+chunkSize/2)
	if n := stagedChunks(s); n != 3 {
		t.Fatalf("staged chunks = %d, want 3", n)
	}
	before := s.EstBytes()
	if dead := s.SweepIndex(bitset.FromIDs(2, 0, 1)); dead != s.Len() {
		t.Fatalf("SweepIndex dead = %d, want all %d", dead, s.Len())
	}
	if n := stagedChunks(s); n != 0 {
		t.Fatalf("staged chunks = %d once every entry is built, want 0", n)
	}
	if live := s.CompactLive(); live != 0 {
		t.Fatalf("CompactLive = %d, want 0", live)
	}
	if stagedChunks(s) != 0 || s.Len() != 0 || s.EstBytes() != 0 {
		t.Errorf("chunks=%d len=%d bytes=%d after full retirement (was %d bytes), want 0,0,0", stagedChunks(s), s.Len(), s.EstBytes(), before)
	}
	insert1(s, 7, []int64{7}, bitset.FromIDs(2, 1))
	if got := probe1(s, "k", 7, v.Now()); len(got) != 1 || got[0].VID != 7 || s.Len() != 1 {
		t.Fatalf("Probe(7) after the floor = %v with Len %d, want the new entry", got, s.Len())
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
	// New inserts supply both keys and land in both indexes.
	insert1(s, 200, []int64{200, 100}, bitset.FromIDs(2, 1))
	ts = v.Now()
	if got := probe1(s, "k2", 100, ts); len(got) != 1 || got[0].VID != 200 {
		t.Errorf("Probe(k2=100) = %v, want the new entry", got)
	}
}

// carries reports whether any union or entry word of tb holds query id.
func carries(tb *unionTable, id int) bool {
	w, bit := id/64, uint64(1)<<(id%64)
	for i := range tb.slots {
		if e := &tb.slots[i]; e.n != 0 && tb.unionWord(e, w)&bit != 0 {
			return true
		}
	}
	for i := w; i < len(tb.words); i += tb.qw {
		if tb.words[i]&bit != 0 {
			return true
		}
	}
	return false
}

// TestSweepIndexCopiesOnlyTablesHoldingRetiredBits builds two tables at
// one, two and five words: the older holds entries of a query r that then
// retires, the newer none of r's entries, and each has a key of two
// entries. SweepIndex must publish a swept copy of the older table and
// leave the tables a probe may still be reading as they were: the old table
// keeps r's bit, and the newer table is kept as it is. A probe on the new
// list sees every entry with its live bit and without r's, and a second
// sweep of r changes nothing.
func TestSweepIndexCopiesOnlyTablesHoldingRetiredBits(t *testing.T) {
	for _, qcap := range maintenanceWidths {
		v := NewVersions()
		s := New(v, []string{"k"}, qcap, 0)
		r, live := qcap-1, 0
		vid := int32(0)
		// insert adds keys lo..lo+9 and a second entry on key lo and probes,
		// which builds their delta.
		insert := func(lo int64, q bitset.Set) {
			for k := lo; k < lo+10; k++ {
				insert1(s, vid, []int64{k}, q)
				vid++
			}
			insert1(s, vid, []int64{lo}, q)
			vid++
			probe1(s, "k", lo, v.Now())
		}
		insert(0, bitset.FromIDs(qcap, live, r))
		insert(10, bitset.FromIDs(qcap, live, r)) // merged with the first delta
		insert(20, bitset.FromIDs(qcap, live))
		before := slices.Clone(tablesOf(s, 0))
		if len(before) != 2 || before[0].deltas != 2 || before[1].deltas != 1 || !carries(before[0], r) || carries(before[1], r) {
			t.Fatalf("%d words, fixture: want a two-delta table holding query %d and a one-delta table without it", s.qw, r)
		}

		retired := bitset.FromIDs(qcap, r)
		s.SweepIndex(retired)
		after := tablesOf(s, 0)
		if len(after) != 2 || after[0] == before[0] || after[1] != before[1] {
			t.Fatalf("%d words: SweepIndex replaced the tables %v with %v, want only the first replaced", s.qw, before, after)
		}
		if !carries(before[0], r) {
			t.Fatalf("%d words: SweepIndex cleared query %d from a table a probe may still read", s.qw, r)
		}
		if carries(after[0], r) || !carries(after[0], live) {
			t.Fatalf("%d words: the swept table holds retired query %d or lost live query %d", s.qw, r, live)
		}

		var keys []int64
		for k := int64(0); k < 30; k++ {
			keys = append(keys, k)
		}
		got := probeVec(s, "k", keys, v.Now())
		if len(got) != 33 {
			t.Fatalf("%d words: probe after the sweep found %d matches, want 33", s.qw, len(got))
		}
		for _, m := range got {
			if m.QSet.Contains(r) || !m.QSet.Contains(live) {
				t.Fatalf("%d words: probe after the sweep matched vid %d with query set %v", s.qw, m.VID, m.QSet)
			}
		}
		s.SweepIndex(retired)
		if again := tablesOf(s, 0); again[0] != after[0] || again[1] != after[1] {
			t.Fatalf("%d words: a second sweep of the same query copied a table", s.qw)
		}
	}
}

// TestCompactLiveIndexesLiveEntriesOnce compacts a STeM whose index holds
// two tables after a query retires: the compaction merges them into one
// table over exactly the live entries, which probes read as it stands.
// Probes find every live entry and none of the dropped ones, and no probe
// rebuilds the table.
func TestCompactLiveIndexesLiveEntriesOnce(t *testing.T) {
	v, s := gcFixture(t, 100)
	probe1(s, "k", 0, v.Now())
	insert1(s, 100, []int64{100}, bitset.FromIDs(2, 1))
	probe1(s, "k", 0, v.Now())
	insert1(s, 101, []int64{101}, bitset.FromIDs(2, 0))
	probe1(s, "k", 0, v.Now())
	if n := len(tablesOf(s, 0)); n != 2 {
		t.Fatalf("fixture: %d tables, want 2", n)
	}

	s.SweepIndex(bitset.FromIDs(2, 0))
	if live := s.CompactLive(); live != 51 {
		t.Fatalf("CompactLive = %d live, want 51", live)
	}
	tables := tablesOf(s, 0)
	if !indexed(s, 0) || len(tables) != 1 || tables[0].keys != 51 || tables[0].entries != 51 {
		t.Fatalf("compacted index: indexed %t with %d tables, want one table over the 51 live entries", indexed(s, 0), len(tables))
	}
	ts := v.Now()
	if !tableServes(s, 0, ts) {
		t.Fatal("a probe after the compaction does not read the merged table as it stands")
	}
	for k := int64(0); k < 102; k++ {
		got := probe1(s, "k", k, ts)
		if want := k%2 == 1 && k < 100 || k == 100; want != (len(got) == 1) || len(got) > 1 {
			t.Fatalf("Probe(%d) = %v after compaction, want a match %t", k, got, want)
		}
	}
	if again := tablesOf(s, 0); len(again) != 1 || again[0] != tables[0] {
		t.Fatal("a probe after the compaction rebuilt the merged table")
	}
}

// TestAddIndexKeepsBuiltTables adds a column to a STeM whose existing
// index holds a table and a range recorded since. The existing index keeps
// both, sharing the table rather than rebuilding it; the new index starts
// from one table over the built entries, re-keyed, with the later range
// pending, and its first probe merges both into one table over every entry.
func TestAddIndexKeepsBuiltTables(t *testing.T) {
	v, s := gcFixture(t, 64)
	probe1(s, "k", 0, v.Now())
	built := tablesOf(s, 0)
	insert1(s, 64, []int64{64}, bitset.FromIDs(2, 1))

	s.AddIndex("k2", func(vid int32) int64 { return int64(vid / 2) })
	if got := tablesOf(s, 0); len(got) != 1 || got[0] != built[0] || indexed(s, 0) {
		t.Fatalf("AddIndex left the existing index with %d tables (shared %t), indexed %t; want the built table shared and the later range recorded", len(got), len(got) > 0 && got[0] == built[0], indexed(s, 0))
	}
	if tables := tablesOf(s, 1); indexed(s, 1) || len(tables) != 1 || tables[0].entries != 64 || tables[0].keys != 32 {
		t.Fatal("the new index does not start from one re-keyed table over the 64 built entries with the later range pending")
	}
	ts := v.Now()
	if got := probe1(s, "k", 64, ts); len(got) != 1 || got[0].VID != 64 || !indexed(s, 0) {
		t.Fatalf("Probe(k=64) = %v, want the entry inserted before AddIndex", got)
	}
	if got := probe1(s, "k2", 32, ts); len(got) != 1 || got[0].VID != 64 {
		t.Fatalf("Probe(k2=32) = %v, want vid 64", got)
	}
	if got := probe1(s, "k2", 3, ts); len(got) != 2 {
		t.Fatalf("Probe(k2=3) = %v, want vids 6 and 7", got)
	}
	if tables := tablesOf(s, 1); len(tables) != 1 || tables[0].entries != 65 {
		t.Fatalf("the new index's first probe left %d tables, want one over all 65 entries", len(tables))
	}
}
