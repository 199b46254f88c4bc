package policystore

import (
	"encoding/hex"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/qlearn"
)

// snapFor builds a small deterministic snapshot distinguishable by tag.
func snapFor(tag int, n int) *qlearn.Snapshot {
	s := &qlearn.Snapshot{NQueries: 8}
	for i := 0; i < n; i++ {
		s.Entries = append(s.Entries, qlearn.SnapEntry{
			Phase: uint8(policy.JoinPhase), Op: int32(i), Lineage: 1,
			Value: float64(-tag), Visits: uint32(tag), Q: []uint64{1},
		})
	}
	return s
}

func TestCacheGetPutMerge(t *testing.T) {
	c, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Get(42); got != nil {
		t.Fatalf("empty cache returned %+v", got)
	}
	c.Put(42, snapFor(1, 2))
	got := c.Get(42)
	if got == nil || len(got.Entries) != 2 || got.Entries[0].Value != -1 {
		t.Fatalf("Get = %+v, want the stored snapshot", got)
	}

	// Get hands out an isolated copy: mutating it must not leak back.
	got.Entries[0].Value = 99
	if again := c.Get(42); again.Entries[0].Value != -1 {
		t.Fatalf("cached snapshot mutated through a Get copy: %v", again.Entries[0].Value)
	}

	// Put merges by visits: -1@1 folded with -9@3 lands at -7@4.
	c.Put(42, &qlearn.Snapshot{NQueries: 8, Entries: []qlearn.SnapEntry{
		{Phase: uint8(policy.JoinPhase), Op: 0, Lineage: 1, Value: -9, Visits: 3, Q: []uint64{1}},
	}})
	merged := c.Get(42)
	if merged.Entries[0].Value != -7 || merged.Entries[0].Visits != 4 {
		t.Fatalf("merge = (%v, %d), want (-7, 4)", merged.Entries[0].Value, merged.Entries[0].Visits)
	}

	st := c.Stats()
	if st.Entries != 1 || st.Hits != 3 || st.Misses != 1 || st.Stores != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c, _ := Open(Options{MaxEntries: 2})
	c.Put(1, snapFor(1, 1))
	c.Put(2, snapFor(2, 1))
	c.Get(1) // touch 1 so 2 is the LRU victim
	c.Put(3, snapFor(3, 1))
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if c.Get(2) != nil {
		t.Fatal("LRU victim still cached")
	}
	if c.Get(1) == nil || c.Get(3) == nil {
		t.Fatal("recently used entries evicted")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

func TestCacheSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.bin")
	c, _ := Open(Options{Path: path})
	c.Put(7, snapFor(2, 3))
	c.Put(9, snapFor(5, 1))
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("reloaded %d entries, want 2", re.Len())
	}
	got := re.Get(7)
	if got == nil || len(got.Entries) != 3 || got.Entries[0].Value != -2 || got.Entries[0].Visits != 2 {
		t.Fatalf("reloaded snapshot = %+v", got)
	}
	if re.Get(9) == nil {
		t.Fatal("second template lost in round trip")
	}
}

// cacheGoldenHex is the policy file of the cache TestCacheEncodingGolden
// builds. Files written by earlier builds must keep loading, so a codec
// change that alters these bytes is a format break.
const cacheGoldenHex = "524c50430100000002000000030000000000000060000000" +
	"524c515301000000080000000200000001000100000000000100000000000000000000000000" +
	"14c005000000010000000000000001000100010000000100000000000000000000000000" +
	"14c00500000001000000000000002d860d374204ce90" +
	"88776655443322113c000000" +
	"524c515301000000080000000100000001000100000000000100000000000000000000000000" +
	"00c0020000000100000000000000" +
	"85a1aac3c4d82468b0b5be7603b4ea7e"

// TestCacheEncodingGolden pins the policy file's bytes, which the
// round-trip tests cannot: a consistent format change passes those.
func TestCacheEncodingGolden(t *testing.T) {
	c, _ := Open(Options{})
	c.Put(0x1122334455667788, snapFor(2, 1))
	c.Put(3, snapFor(5, 2))
	if got := hex.EncodeToString(c.encode()); got != cacheGoldenHex {
		t.Fatalf("encoding changed:\n got %s\nwant %s", got, cacheGoldenHex)
	}
	data, err := hex.DecodeString(cacheGoldenHex)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || !reflect.DeepEqual(snaps[3], snapFor(5, 2)) ||
		!reflect.DeepEqual(snaps[0x1122334455667788], snapFor(2, 1)) {
		t.Fatalf("decoded %+v", snaps)
	}
}

func TestCacheOpenMissingFileIsCold(t *testing.T) {
	c, err := Open(Options{Path: filepath.Join(t.TempDir(), "absent.bin")})
	if err != nil {
		t.Fatalf("missing file should cold-start, got %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("cold start has %d entries", c.Len())
	}
}

func TestCacheRejectsCorruptedFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.bin")
	c, _ := Open(Options{Path: path})
	c.Put(7, snapFor(2, 2))
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(Options{Path: path})
		if err == nil {
			t.Fatalf("flipped byte %d accepted", i)
		}
		// Corruption degrades to a usable empty cache, never a nil one.
		if re == nil || re.Len() != 0 {
			t.Fatalf("corrupted load left cache %+v", re)
		}
	}
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Options{Path: path}); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// TestCacheConcurrentSaveLoadWhileStoring hammers the cache from
// concurrent writers (streaming sweeps), readers (submits), and
// savers/loaders (operator \policy commands) — the -race CI target.
func TestCacheConcurrentSaveLoadWhileStoring(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "policy.bin")
	c, _ := Open(Options{MaxEntries: 8, Path: path})
	if err := c.Save(); err != nil { // seed a loadable file
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	const iters = 200
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				sig := uint64(rng.Intn(12))
				switch rng.Intn(4) {
				case 0:
					c.Put(sig, snapFor(w+1, 1+rng.Intn(3)))
				case 1:
					if s := c.Get(sig); s != nil {
						s.Entries[0].Value = 123 // copies are ours to scribble on
					}
				case 2:
					if err := c.Save(); err != nil {
						t.Errorf("save: %v", err)
					}
				case 3:
					if err := c.LoadFrom(path); err != nil {
						t.Errorf("load: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("cache exceeded cap: %d", c.Len())
	}
}
