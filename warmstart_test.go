package roulette

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
)

// warmBatch builds the recurring workload used across the warm-start
// tests: two joins sharing the fact scan, with per-run constants.
func warmBatch(lo int64) []*Query {
	return []*Query{
		NewQuery("a").From("fact").From("dim").Join("fact", "fk", "dim", "k").
			Between("fact", "v", lo, lo+40),
		NewQuery("b").From("fact").From("dim").Join("fact", "fk", "dim", "k").
			Eq("dim", "g", 1),
	}
}

// TestPolicyStoreColdRunMatchesBaseline is the oracle-equivalence gate:
// executing with an empty store attached must reproduce a store-less run
// bit for bit — same counts, same episode count, same per-episode
// convergence series — because a cold lookup must not perturb the
// policy's RNG stream or Q-table.
func TestPolicyStoreColdRunMatchesBaseline(t *testing.T) {
	run := func(store *PolicyStore) (*BatchResult, error) {
		e := fixture(t)
		return e.ExecuteBatch(warmBatch(10), &Options{
			Seed: 7, TrackConvergence: true, PolicyStore: store,
		})
	}
	base, err := run(nil)
	if err != nil {
		t.Fatal(err)
	}
	store, _ := NewPolicyStore(PolicyStoreOptions{})
	cold, err := run(store)
	if err != nil {
		t.Fatal(err)
	}
	if base.Queries[0].Count != cold.Queries[0].Count || base.Queries[1].Count != cold.Queries[1].Count {
		t.Fatalf("counts diverged: %v vs %v", base.Queries, cold.Queries)
	}
	if base.Episodes != cold.Episodes {
		t.Fatalf("episodes diverged: %d vs %d", base.Episodes, cold.Episodes)
	}
	if !reflect.DeepEqual(base.Convergence, cold.Convergence) {
		t.Fatal("convergence series diverged: cold store perturbed the run")
	}
	// The run itself must have populated the store for the next one.
	if st := store.Stats(); st.Stores == 0 || st.Misses == 0 || st.Hits != 0 || st.Entries == 0 {
		t.Fatalf("store stats after cold run = %+v", st)
	}
}

// TestPolicyStoreWarmStartBatch: a second run of the same workload shape
// — submitted in a different order, under different tags and constants —
// must hit the cache and produce correct results.
func TestPolicyStoreWarmStartBatch(t *testing.T) {
	e := fixture(t)
	store, _ := NewPolicyStore(PolicyStoreOptions{})
	if _, err := e.ExecuteBatch(warmBatch(10), &Options{Seed: 7, PolicyStore: store}); err != nil {
		t.Fatal(err)
	}

	// Same template set, permuted order, renamed tags, shifted constants.
	qs := warmBatch(30)
	qs[0], qs[1] = qs[1], qs[0]
	qs[0].q.Tag, qs[1].q.Tag = "x", "y"
	res, err := e.ExecuteBatch(qs, &Options{Seed: 99, PolicyStore: store})
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Hits == 0 {
		t.Fatalf("warm run missed the cache: %+v", st)
	}

	// Correctness under a warm start: counts match a store-less run.
	base, err := fixture(t).ExecuteBatch(warmBatch(30), &Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries[0].Count != base.Queries[1].Count || res.Queries[1].Count != base.Queries[0].Count {
		t.Fatalf("warm counts %v vs baseline %v (order-swapped)", res.Queries, base.Queries)
	}
}

// TestPolicyStoreWarmStartDeferredAdmissions: a batch looks its whole
// template set up in the store, deferred queries included, so Options.Admissions
// does not change which snapshots a run imports: a cold-then-warm pair of
// runs makes the same lookups with a deferred query as without one.
func TestPolicyStoreWarmStartDeferredAdmissions(t *testing.T) {
	lookups := func(adm []Admission) (cold, warm PolicyStoreStats) {
		e := fixture(t)
		store, _ := NewPolicyStore(PolicyStoreOptions{})
		opts := &Options{Seed: 7, VectorSize: 64, PolicyStore: store, Admissions: adm}
		if _, err := e.ExecuteBatch(warmBatch(10), opts); err != nil {
			t.Fatal(err)
		}
		cold = store.Stats()
		if _, err := e.ExecuteBatch(warmBatch(30), opts); err != nil {
			t.Fatal(err)
		}
		return cold, store.Stats()
	}
	wantCold, wantWarm := lookups(nil)
	gotCold, gotWarm := lookups([]Admission{{AfterFraction: 0.5, Queries: []int{1}}})
	if gotCold.Hits != wantCold.Hits || gotCold.Misses != wantCold.Misses {
		t.Errorf("cold run with a deferred query: %+v, without: %+v", gotCold, wantCold)
	}
	if gotWarm.Hits != wantWarm.Hits || gotWarm.Misses != wantWarm.Misses {
		t.Errorf("warm run with a deferred query: %+v, without: %+v", gotWarm, wantWarm)
	}
	if gotWarm.Hits == gotCold.Hits || gotWarm.Misses != gotCold.Misses {
		t.Errorf("warm run did not hit the whole-set snapshot: cold %+v, warm %+v", gotCold, gotWarm)
	}
}

// TestPolicyStoreDistinguishesShapes: a different join shape must not hit
// the snapshot cached for another template set.
func TestPolicyStoreDistinguishesShapes(t *testing.T) {
	e := fixture(t)
	store, _ := NewPolicyStore(PolicyStoreOptions{})
	if _, err := e.ExecuteBatch(warmBatch(10), &Options{PolicyStore: store}); err != nil {
		t.Fatal(err)
	}
	other := []*Query{
		NewQuery("solo").From("fact").From("dim").Join("fact", "fk", "dim", "k").CountStar(),
	}
	if _, err := e.ExecuteBatch(other, &Options{PolicyStore: store}); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	if st.Hits != 0 || st.Entries < 2 {
		t.Fatalf("distinct shapes shared a snapshot: %+v", st)
	}
}

// TestPolicyStoreStream exercises the streaming path: retirement sweeps
// export snapshots, a later stream over the same store warm-starts, and
// Close persists to disk for a third, fresh store to reload.
func TestPolicyStoreStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "policy.bin")
	e := fixture(t)
	store, err := NewPolicyStore(PolicyStoreOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	runStream := func(store *PolicyStore, lo int64) {
		t.Helper()
		st, err := e.OpenStream(context.Background(), &StreamOptions{
			Options: Options{Seed: 5, PolicyStore: store},
		})
		if err != nil {
			t.Fatal(err)
		}
		// One query at a time: "a" has retired before "b" arrives, so "a"
		// learns — and is exported — under its own singleton template whether
		// or not the collector has swept it by then, and the next stream's
		// first Submit imports that template. Submitting both at once lets
		// the sweep race decide whether any exported set is ever looked up.
		for _, q := range warmBatch(lo) {
			tk, err := st.Submit(q)
			if err != nil {
				t.Fatal(err)
			}
			if qr, err := tk.Wait(context.Background()); err != nil || qr.Aborted {
				t.Fatalf("stream query failed: %v %v", err, qr.Err)
			}
		}
		st.SnapshotPolicy()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	runStream(store, 10)
	if st := store.Stats(); st.Stores == 0 {
		t.Fatalf("first stream exported nothing: %+v", st)
	}
	runStream(store, 30)
	if st := store.Stats(); st.Hits == 0 {
		t.Fatalf("second stream never warm-started: %+v", st)
	}

	// Close saved the store; a fresh one over the same path reloads it.
	re, err := NewPolicyStore(PolicyStoreOptions{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() == 0 {
		t.Fatal("persisted policy file reloaded empty")
	}
	runStream(re, 50)
	if st := re.Stats(); st.Hits == 0 {
		t.Fatalf("reloaded store never warm-started: %+v", st)
	}
}
