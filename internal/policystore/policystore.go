// Package policystore caches learned Q-table snapshots keyed by workload
// template signature, so a recurring batch of queries warm-starts from
// what earlier runs learned instead of re-exploring from scratch
// (DESIGN.md §13). The cache is an in-memory LRU with optional on-disk
// persistence: Save writes an atomic, checksummed file that Open reloads,
// and a corrupted or truncated file degrades to an empty cache rather
// than poisoning the policy.
package policystore

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"

	"github.com/roulette-db/roulette/internal/qlearn"
)

// DefaultMaxEntries bounds the cache when Options.MaxEntries is zero.
const DefaultMaxEntries = 64

// Options configures a Cache.
type Options struct {
	// MaxEntries caps the number of cached templates (LRU eviction beyond
	// it). Zero means DefaultMaxEntries.
	MaxEntries int
	// Path, when set, is the on-disk policy file: Open loads it if present
	// and Save rewrites it atomically.
	Path string
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Stores    uint64 `json:"stores"`
	Evictions uint64 `json:"evictions"`
}

type entry struct {
	snap    *qlearn.Snapshot
	lastUse uint64
}

// Cache is a thread-safe LRU of template signature -> merged Q-table
// snapshot. All methods run off the episode hot path (submit, GC finish,
// close), so a plain mutex is fine.
type Cache struct {
	mu    sync.Mutex
	max   int
	path  string
	clock uint64
	m     map[uint64]*entry

	hits, misses, stores, evictions uint64
}

// Open builds a cache and, when opts.Path names an existing file, loads
// it. A missing file is a cold start, not an error; a corrupted file is
// reported (so callers can log it) but still yields a usable empty cache.
func Open(opts Options) (*Cache, error) {
	c := &Cache{max: opts.MaxEntries, path: opts.Path, m: make(map[uint64]*entry)}
	if c.max <= 0 {
		c.max = DefaultMaxEntries
	}
	if opts.Path == "" {
		return c, nil
	}
	if _, err := os.Stat(opts.Path); os.IsNotExist(err) {
		return c, nil
	}
	if err := c.LoadFrom(opts.Path); err != nil {
		return c, fmt.Errorf("policystore: load %s: %w", opts.Path, err)
	}
	return c, nil
}

// Get returns a deep copy of the cached snapshot for sig, or nil. The
// copy is the caller's to import; the cached original keeps absorbing
// Put merges concurrently.
func (c *Cache) Get(sig uint64) *qlearn.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[sig]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.clock++
	e.lastUse = c.clock
	return e.snap.Clone()
}

// Put folds snap into the cached snapshot for sig (visit-weighted merge
// with whatever earlier runs stored), inserting it if absent and
// evicting the least-recently-used template past the cap. The cache
// takes ownership of snap.
func (c *Cache) Put(sig uint64, snap *qlearn.Snapshot) {
	if snap == nil || len(snap.Entries) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stores++
	c.clock++
	if e, ok := c.m[sig]; ok {
		e.snap.Merge(snap)
		e.lastUse = c.clock
		return
	}
	c.m[sig] = &entry{snap: snap, lastUse: c.clock}
	for len(c.m) > c.max {
		var victim uint64
		oldest := uint64(1<<64 - 1)
		for s, e := range c.m {
			if e.lastUse < oldest {
				oldest, victim = e.lastUse, s
			}
		}
		delete(c.m, victim)
		c.evictions++
	}
}

// Len reports the number of cached templates.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries: len(c.m), Hits: c.hits, Misses: c.misses,
		Stores: c.stores, Evictions: c.evictions,
	}
}

// Save persists the cache to the path it was opened with; a pathless
// cache is in-memory only and Save is a no-op.
func (c *Cache) Save() error {
	if c.path == "" {
		return nil
	}
	return c.SaveTo(c.path)
}

// SaveTo writes every cached snapshot to path atomically (temp file in
// the same directory, then rename), so a crash mid-save leaves the old
// file intact.
func (c *Cache) SaveTo(path string) error {
	data := c.encode()
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".policy-*.tmp")
	if err != nil {
		return fmt.Errorf("policystore: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("policystore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("policystore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("policystore: %w", err)
	}
	return nil
}

// LoadFrom reads a policy file and merges its snapshots into the cache
// (visit-weighted, like Put). Validation is checksum-first: any damage
// anywhere rejects the whole file.
func (c *Cache) LoadFrom(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("policystore: %w", err)
	}
	snaps, err := decode(data)
	if err != nil {
		return err
	}
	for sig, snap := range snaps {
		c.Put(sig, snap)
	}
	return nil
}

// File format (all little-endian):
//
//	magic "RLPC" | version u32 | count u32
//	per entry: sig u64 | bloblen u32 | blob (qlearn snapshot encoding)
//	trailer: FNV-1a 64 checksum of everything before it, u64
//
// Each blob carries its own magic and checksum too (qlearn codec), so a
// file that passes the outer checksum still re-validates every snapshot.

const (
	fileMagic   = "RLPC"
	fileVersion = 1
)

var le = binary.LittleEndian

// encode serializes the cache under its lock, in deterministic (sorted
// signature) order so identical caches produce identical files.
func (c *Cache) encode() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	sigs := make([]uint64, 0, len(c.m))
	for s := range c.m {
		sigs = append(sigs, s)
	}
	for i := 1; i < len(sigs); i++ { // insertion sort: len ≤ max (small)
		for j := i; j > 0 && sigs[j-1] > sigs[j]; j-- {
			sigs[j-1], sigs[j] = sigs[j], sigs[j-1]
		}
	}
	buf := []byte(fileMagic)
	buf = le.AppendUint32(buf, fileVersion)
	buf = le.AppendUint32(buf, uint32(len(sigs)))
	for _, sig := range sigs {
		blob := c.m[sig].snap.Encode()
		buf = le.AppendUint64(buf, sig)
		buf = le.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
	}
	h := fnv.New64a()
	h.Write(buf)
	return le.AppendUint64(buf, h.Sum64())
}

// decode parses and validates a policy file.
func decode(data []byte) (map[uint64]*qlearn.Snapshot, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("policystore: file truncated (%d bytes)", len(data))
	}
	body := data[:len(data)-8]
	h := fnv.New64a()
	h.Write(body)
	if h.Sum64() != le.Uint64(data[len(data)-8:]) {
		return nil, fmt.Errorf("policystore: file checksum mismatch")
	}
	if string(body[:4]) != fileMagic {
		return nil, fmt.Errorf("policystore: bad file magic %q", body[:4])
	}
	if v := le.Uint32(body[4:]); v != fileVersion {
		return nil, fmt.Errorf("policystore: unsupported file version %d", v)
	}
	n := int(le.Uint32(body[8:]))
	off := 12
	out := make(map[uint64]*qlearn.Snapshot, n)
	for i := 0; i < n; i++ {
		if off+12 > len(body) {
			return nil, fmt.Errorf("policystore: entry %d header truncated", i)
		}
		sig := le.Uint64(body[off:])
		blen := int(le.Uint32(body[off+8:]))
		off += 12
		if off+blen > len(body) {
			return nil, fmt.Errorf("policystore: entry %d blob truncated", i)
		}
		snap, err := qlearn.DecodeSnapshot(body[off : off+blen])
		if err != nil {
			return nil, fmt.Errorf("policystore: entry %d: %w", i, err)
		}
		off += blen
		out[sig] = snap
	}
	if off != len(body) {
		return nil, fmt.Errorf("policystore: %d trailing bytes", len(body)-off)
	}
	return out, nil
}
