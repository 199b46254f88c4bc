package qlearn

import (
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/policy"
)

// snapNQ covers the deepest query sets genOps draws (500 bits).
const snapNQ = 512

// permRemap builds a random full-permutation Remap over the ID spaces
// genOps draws from (no drops), plus its inverse.
func permRemap(rng *rand.Rand) (rm, inv *Remap) {
	permInto := func(n, space int) ([]int, []int) {
		fwd := make([]int, n)
		bwd := make([]int, space)
		for i := range bwd {
			bwd[i] = -1
		}
		p := rng.Perm(space)[:n]
		for i, t := range p {
			fwd[i] = t
			bwd[t] = i
		}
		return fwd, bwd
	}
	rm = &Remap{NQ: snapNQ}
	inv = &Remap{NQ: snapNQ}
	rm.Query, inv.Query = permInto(snapNQ, snapNQ)
	rm.Inst, inv.Inst = permInto(4, 8)
	rm.JoinOp, inv.JoinOp = permInto(6, 12)
	rm.SelOp, inv.SelOp = permInto(6, 12)
	rm.SelBit = make([][]int, 4)
	invBits := make([][]int, 8)
	for i := 0; i < 4; i++ {
		fwd, bwd := permInto(4, 8)
		rm.SelBit[i] = fwd
		// The inverse per-instance bit map lives at the *target* instance.
		invBits[rm.Inst[i]] = bwd
	}
	inv.SelBit = invBits
	return rm, inv
}

// exportsEqual compares two sorted export listings: every field exactly,
// except Value to within 1e-12 relative. An import into a fresh slot stores
// (v·n)/n (mergeInto), which can differ from v by one ULP, so a round trip
// reproduces values only up to that rounding.
func exportsEqual(t *testing.T, label string, a, b []SnapEntry) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d entries", label, len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Abs(x.Value-y.Value) > 1e-12*math.Max(math.Abs(x.Value), math.Abs(y.Value)) {
			t.Fatalf("%s: entry %d values differ:\n  %+v\n  %+v", label, i, x, y)
		}
		x.Value, y.Value = 0, 0
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("%s: entry %d differs:\n  %+v\n  %+v", label, i, a[i], b[i])
		}
	}
}

// identityRemap maps every ID space to itself.
func identityRemap() *Remap {
	id := func(n int) []int {
		m := make([]int, n)
		for i := range m {
			m[i] = i
		}
		return m
	}
	rm := &Remap{NQ: snapNQ, Query: id(snapNQ), Inst: id(8), JoinOp: id(12), SelOp: id(12)}
	rm.SelBit = make([][]int, 8)
	for i := range rm.SelBit {
		rm.SelBit[i] = id(8)
	}
	return rm
}

// TestSnapshotRoundTripMatchesReference extends the Table/RefTable
// equivalence property through the persistence layer: after identical
// random update sequences (and a PruneRetired), both tables must export
// identical snapshots under a random permutation remap, and importing
// those snapshots back through the inverse remap must reproduce every
// Q-value and visit count in both representations.
func TestSnapshotRoundTripMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl := newTableSized(8)
		ref := NewRefTable()
		ops := genOps(rng, 300)
		for _, o := range ops {
			s := tbl.Slot(o.phase, o.inst, o.lineage, o.q, o.op)
			s.value = o.value
			s.visits++
			ref.Set(o.phase, o.inst, o.lineage, o.q, o.op, o.value)
		}

		// Retire a random slice of queries first: the export must only ever
		// carry surviving states, exactly as a streaming sweep would leave
		// them.
		retired := bitset.New(snapNQ)
		for b := 0; b < snapNQ; b++ {
			if rng.Intn(10) == 0 {
				retired.Add(b)
			}
		}
		if tbl.PruneRetired(retired) != ref.PruneRetired(retired) {
			t.Error("prune removed different counts")
			return false
		}

		rm, inv := permRemap(rng)
		snapT := tbl.Export(rm)
		snapR := ref.Export(rm)
		exportsEqual(t, "export", snapT, snapR)

		// Round-trip through the inverse remap into fresh tables.
		tbl2 := newTableSized(8)
		ref2 := NewRefTable()
		for _, se := range snapT {
			if mapped, ok := remapEntry(se, inv); ok {
				tbl2.ImportEntry(mapped)
				ref2.ImportEntry(mapped)
			} else {
				t.Errorf("inverse remap dropped %+v", se)
				return false
			}
		}
		if tbl2.Len() != tbl.Len() || ref2.Len() != ref.Len() {
			t.Errorf("round-trip lost entries: %d/%d vs %d/%d",
				tbl2.Len(), tbl.Len(), ref2.Len(), ref.Len())
			return false
		}
		idRM := identityRemap()
		exportsEqual(t, "table round-trip", tbl.Export(idRM), tbl2.Export(idRM))
		exportsEqual(t, "ref round-trip", ref.Export(idRM), ref2.Export(idRM))

		// Every probe state agrees after the round trip.
		for _, o := range ops {
			if tbl2.Get(o.phase, o.inst, o.lineage, o.q, o.op) !=
				ref2.Get(o.phase, o.inst, o.lineage, o.q, o.op) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSnapshotDropsRetiredQueryEntries pins the drop semantics: importing
// through a remap whose query map marks an ID as dead (-1) must skip
// every entry whose query set contains it — the qid-recycling safety that
// PruneRetired enforces inside a run, extended across runs.
func TestSnapshotDropsRetiredQueryEntries(t *testing.T) {
	tbl := NewTable()
	live := bitset.FromIDs(4, 0)
	mixed := bitset.FromIDs(4, 0, 1)
	tbl.Slot(policy.JoinPhase, 0, 1, live, 0).value = 1
	tbl.Slot(policy.JoinPhase, 0, 1, mixed, 0).value = 2

	rm := identityRemap()
	rm.Query[1] = -1
	out := tbl.Export(rm)
	if len(out) != 1 || out[0].Value != 1 {
		t.Fatalf("export kept %d entries (%+v), want only the live one", len(out), out)
	}
}

// TestSnapshotMergeWeightsByVisits checks the visit-count-weighted fold:
// merging a 3-visit estimate of -9 into a 1-visit estimate of -1 must
// land at -7, and the state must then carry 4 visits.
func TestSnapshotMergeWeightsByVisits(t *testing.T) {
	q := []uint64{1}
	a := &Snapshot{NQueries: 4, Entries: []SnapEntry{
		{Phase: uint8(policy.JoinPhase), Op: 0, Lineage: 1, Value: -1, Visits: 1, Q: q},
	}}
	b := &Snapshot{NQueries: 4, Entries: []SnapEntry{
		{Phase: uint8(policy.JoinPhase), Op: 0, Lineage: 1, Value: -9, Visits: 3, Q: q},
		{Phase: uint8(policy.JoinPhase), Op: 1, Lineage: 1, Value: -5, Visits: 2, Q: q},
	}}
	a.Merge(b)
	if len(a.Entries) != 2 {
		t.Fatalf("merge produced %d entries, want 2", len(a.Entries))
	}
	for _, e := range a.Entries {
		switch e.Op {
		case 0:
			if e.Value != -7 || e.Visits != 4 {
				t.Errorf("merged entry = (%v, %d visits), want (-7, 4)", e.Value, e.Visits)
			}
		case 1:
			if e.Value != -5 || e.Visits != 2 {
				t.Errorf("adopted entry = (%v, %d visits), want (-5, 2)", e.Value, e.Visits)
			}
		}
	}
}

// TestSnapshotEncodeDecodeRoundTrip round-trips a randomly populated
// snapshot through the binary codec.
func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := newTableSized(8)
	for _, o := range genOps(rng, 200) {
		s := tbl.Slot(o.phase, o.inst, o.lineage, o.q, o.op)
		s.value = o.value
		s.visits += uint32(1 + rng.Intn(5))
	}
	snap := &Snapshot{NQueries: snapNQ, Entries: tbl.Export(identityRemap())}
	got, err := DecodeSnapshot(snap.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.NQueries != snap.NQueries {
		t.Fatalf("NQueries = %d, want %d", got.NQueries, snap.NQueries)
	}
	exportsEqual(t, "codec round-trip", snap.Entries, got.Entries)
}

// snapGoldenHex is the encoding of goldenSnapshot. Policy files written by
// earlier builds embed this format, so a codec change that alters it breaks
// their warm start.
const snapGoldenHex = "524c51530100000046000000020000000002020005000000efcdab8967452301" +
	"000000000000f4bf0300000001000000000000803f00000000000000010901007011010006000000" +
	"00000000000000000088a34098badcfeff00ff00ff00ff00537ccc4d5e7d8d6c"

func goldenSnapshot() *Snapshot {
	return &Snapshot{NQueries: 70, Entries: []SnapEntry{
		{Phase: uint8(policy.SelPhase), Inst: 2, Op: 5, Lineage: 0x0123456789abcdef, Value: -1.25, Visits: 3,
			Q: []uint64{0x8000000000000001, 0x3f}},
		{Phase: uint8(policy.JoinPhase), Inst: 9, Op: 70000, Lineage: 0x6, Value: 2.5e3, Visits: 0xfedcba98,
			Q: []uint64{0x00ff00ff00ff00ff}},
	}}
}

// TestSnapshotEncodingGolden pins the snapshot's on-disk bytes, which the
// round-trip tests cannot: a consistent format change passes those.
func TestSnapshotEncodingGolden(t *testing.T) {
	snap := goldenSnapshot()
	if got := hex.EncodeToString(snap.Encode()); got != snapGoldenHex {
		t.Fatalf("encoding changed:\n got %s\nwant %s", got, snapGoldenHex)
	}
	data, err := hex.DecodeString(snapGoldenHex)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("decoded %+v, want %+v", got, snap)
	}
}

// TestSnapshotDecodeRejectsCorruption: every class of damage — flipped
// bytes anywhere, truncation at every boundary, bad magic, unknown
// version, trailing garbage — must produce an error, never a snapshot.
func TestSnapshotDecodeRejectsCorruption(t *testing.T) {
	tbl := NewTable()
	q := bitset.FromIDs(4, 0, 2)
	s := tbl.Slot(policy.SelPhase, 1, 3, q, 2)
	s.value, s.visits = -4.5, 7
	data := (&Snapshot{NQueries: 4, Entries: tbl.Export(identityRemap())}).Encode()
	if _, err := DecodeSnapshot(data); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if _, err := DecodeSnapshot(bad); err == nil {
			t.Fatalf("flipped byte %d accepted", i)
		}
	}
	for n := 0; n < len(data); n++ {
		if _, err := DecodeSnapshot(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	if _, err := DecodeSnapshot(append(append([]byte(nil), data...), 0xAB)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestImportMarksWarm: a successful import must mark the policy warm and
// drop ε by the exploit-mode factor exactly once.
func TestImportMarksWarm(t *testing.T) {
	l := New(DefaultConfig())
	coldEps := l.Epsilon()
	if l.Warm() {
		t.Fatal("fresh policy reports warm")
	}

	// An import where everything is dropped must NOT mark warm.
	rm := identityRemap()
	empty := &Snapshot{NQueries: snapNQ}
	if n := l.Import(empty, rm); n != 0 || l.Warm() {
		t.Fatalf("empty import: n=%d warm=%v", n, l.Warm())
	}

	snap := &Snapshot{NQueries: snapNQ, Entries: []SnapEntry{
		{Phase: uint8(policy.JoinPhase), Op: 0, Lineage: 1, Value: -3, Visits: 2, Q: []uint64{1}},
	}}
	if n := l.Import(snap, rm); n != 1 {
		t.Fatalf("import folded %d entries, want 1", n)
	}
	if !l.Warm() {
		t.Fatal("policy not warm after import")
	}
	want := coldEps * warmEpsilonFactor
	if eps := l.Epsilon(); eps != want {
		t.Fatalf("ε = %v after warm start, want %v", eps, want)
	}
	// Idempotent: a second import must not drop ε again.
	l.Import(snap, rm)
	if eps := l.Epsilon(); eps != want {
		t.Fatalf("ε = %v after second import, want %v (single drop)", eps, want)
	}
	// The imported prior is visible to the policy's value estimates.
	q := bitset.FromIDs(snapNQ, 0)
	if v := l.qValue(policy.JoinPhase, 0, 1, q, 0); v != -3 {
		t.Fatalf("imported Q-value = %v, want -3", v)
	}
}
