package roulette

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/metrics"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/stem"
)

// streamFixture builds a three-table engine large enough that streams run
// for many episodes: fact(fk, gk, v) ⋈ dim(k, g) and fact ⋈ grp(gk2, h).
func streamFixture(t *testing.T, nf int) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	const nd, ng = 40, 16
	fk := make([]int64, nf)
	gk := make([]int64, nf)
	v := make([]int64, nf)
	for i := range fk {
		fk[i] = int64(rng.Intn(nd))
		gk[i] = int64(rng.Intn(ng))
		v[i] = int64(rng.Intn(1000))
	}
	dk := make([]int64, nd)
	dg := make([]int64, nd)
	for i := range dk {
		dk[i] = int64(i)
		dg[i] = int64(i % 5)
	}
	gk2 := make([]int64, ng)
	gh := make([]int64, ng)
	for i := range gk2 {
		gk2[i] = int64(i)
		gh[i] = int64(i % 3)
	}
	e := NewEngine()
	e.MustCreateTable("fact", ColSlice("fk", fk), ColSlice("gk", gk), ColSlice("v", v))
	e.MustCreateTable("dim", ColSlice("k", dk), ColSlice("g", dg))
	e.MustCreateTable("grp", ColSlice("gk2", gk2), ColSlice("h", gh))
	return e
}

// streamWorkload is a mixed query set in the spirit of the paper's Fig. 12
// workload: shared join structure, varying selections.
func streamWorkload() []*Query {
	mk := func(tag string) *Query {
		return NewQuery(tag).From("fact").From("dim").Join("fact", "fk", "dim", "k")
	}
	return []*Query{
		mk("q0").CountStar(),
		mk("q1").Between("fact", "v", 0, 499),
		mk("q2").Between("fact", "v", 500, 999),
		mk("q3").Eq("dim", "g", 2),
		mk("q4").Lt("fact", "v", 250).CountStar(),
		NewQuery("q5").From("fact").From("grp").Join("fact", "gk", "grp", "gk2").Eq("grp", "h", 1),
		NewQuery("q6").From("fact").From("dim").From("grp").
			Join("fact", "fk", "dim", "k").Join("fact", "gk", "grp", "gk2").
			Ge("fact", "v", 100),
		mk("q7").Sum("fact", "v").GroupBy("dim", "g").OrderByKey(),
	}
}

func oracleCounts(t *testing.T, e *Engine, qs []*Query) map[string]QueryResult {
	t.Helper()
	res, err := e.ExecuteBatch(qs, &Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]QueryResult, len(res.Queries))
	for _, qr := range res.Queries {
		if qr.Aborted {
			t.Fatalf("oracle query %s aborted: %v", qr.Tag, qr.Err)
		}
		want[qr.Tag] = qr
	}
	return want
}

func checkAgainstOracle(t *testing.T, got QueryResult, want map[string]QueryResult) {
	t.Helper()
	w, ok := want[got.Tag]
	if !ok {
		t.Fatalf("unexpected result tag %q", got.Tag)
	}
	if got.Aborted {
		t.Fatalf("query %s aborted: %v", got.Tag, got.Err)
	}
	if got.Count != w.Count {
		t.Errorf("query %s: count = %d, want %d", got.Tag, got.Count, w.Count)
	}
	if len(got.Groups) != len(w.Groups) {
		t.Fatalf("query %s: %d groups, want %d", got.Tag, len(got.Groups), len(w.Groups))
	}
	for i := range got.Groups {
		if got.Groups[i] != w.Groups[i] {
			t.Errorf("query %s group %d: %+v, want %+v", got.Tag, i, got.Groups[i], w.Groups[i])
		}
	}
}

// TestStreamMatchesBatch is the tentpole equivalence check: submitting the
// workload one query at a time into a live stream produces results
// identical to one-shot ExecuteBatch.
func TestStreamMatchesBatch(t *testing.T) {
	e := streamFixture(t, 4000)
	want := oracleCounts(t, e, streamWorkload())

	st, err := e.OpenStream(context.Background(), &StreamOptions{
		Options: Options{Workers: 2, VectorSize: 256, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for _, q := range streamWorkload() {
		tk, err := st.Submit(q)
		if err != nil {
			t.Fatalf("submit %v: %v", q, err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		qr, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, qr, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamRandomizedArrival stresses the live-admission path: queries
// arrive in random order with random delays (so they land mid-scan of
// whatever is already running), across several reuse rounds so query IDs
// are recycled through GC. Results must always match the oracle. Run with
// -race to exercise the quiesce gate.
func TestStreamRandomizedArrival(t *testing.T) {
	e := streamFixture(t, 3000)
	want := oracleCounts(t, e, streamWorkload())
	rng := rand.New(rand.NewSource(5))

	st, err := e.OpenStream(context.Background(), &StreamOptions{
		Options:    Options{Workers: 3, VectorSize: 128, Seed: 11},
		MaxQueries: 4, // force retirement + reclamation between arrivals
	})
	if err != nil {
		t.Fatal(err)
	}
	results := st.Results()
	done := make(chan struct{})
	var got []QueryResult
	go func() {
		defer close(done)
		for qr := range results {
			got = append(got, qr)
		}
	}()

	const rounds = 3
	for r := 0; r < rounds; r++ {
		qs := streamWorkload()
		rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		for _, q := range qs {
			for {
				_, err := st.Submit(q)
				if errors.Is(err, ErrStreamFull) {
					time.Sleep(200 * time.Microsecond)
					continue
				}
				if err != nil {
					t.Fatalf("round %d submit: %v", r, err)
				}
				break
			}
			if rng.Intn(2) == 0 {
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	for _, qr := range got {
		checkAgainstOracle(t, qr, want)
	}
	if wantN := rounds * len(streamWorkload()); len(got) != wantN {
		t.Errorf("got %d results, want %d", len(got), wantN)
	}
}

// TestStreamStemGC checks the reclamation contract: while queries run the
// STeMs hold the entries they built and the union tables indexing them;
// after every query retires and the collector drains, every entry is gone,
// and at least 90% of the estimated STeM bytes with them — and a query
// submitted after the collapse still computes exact results (no live query
// loses tuples to GC). Under the build rule (DESIGN.md §10) the dimensions
// always build and the fact table, scanned last, builds only under
// in-flight overlap, so the test also requires that entries were inserted
// at all: an empty run would reclaim nothing.
func TestStreamStemGC(t *testing.T) {
	e := streamFixture(t, 4000)
	want := oracleCounts(t, e, streamWorkload())

	var st *Stream
	total := func() (bytes, entries, inserts int64) {
		for _, s := range st.StemStats() {
			bytes += s.EstBytes
			entries += s.Entries
			inserts += s.Inserts
		}
		return
	}

	// Track the peak footprint at every episode start, where the STeMs hold
	// what the live queries' earlier episodes built, and between stream
	// operations. Samples taken only after Submit and Wait returned can all
	// miss the working set: STeMs grow at dispatch, not at Submit, and a
	// query can build, retire and be swept between two of them. (A
	// free-running poller goroutine is not guaranteed any CPU time on a
	// single-core host and can miss the whole run.)
	var (
		peakMu sync.Mutex
		peak   int64
	)
	sample := func() {
		n, _, _ := total()
		peakMu.Lock()
		peak = max(peak, n)
		peakMu.Unlock()
	}
	opt := &StreamOptions{Options: Options{Workers: 2, VectorSize: 256, Seed: 11}}
	opt.hooks.EpisodeStart = func(query.InstID, stem.Slot) { sample() }
	st, err := e.OpenStream(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}

	var tickets []*Ticket
	for _, q := range streamWorkload() {
		tk, err := st.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
		sample()
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		sample()
	}
	peakMu.Lock()
	seen := peak
	peakMu.Unlock()
	if seen == 0 {
		t.Fatal("never observed a non-empty STeM")
	}

	if _, _, inserts := total(); inserts == 0 {
		t.Fatal("no STeM entry was ever built; the reclamation check would be vacuous")
	}

	// GC runs between episodes once the stream idles; poll for the collapse.
	deadline := time.Now().Add(10 * time.Second)
	for {
		n, entries, _ := total()
		if 10*n <= seen && entries == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("STeMs not reclaimed: %d entries left, EstBytes peak %d, now %d (want <= 10%%)", entries, seen, n)
		}
		time.Sleep(time.Millisecond)
	}

	// The stream is still usable after full reclamation: a fresh query gets
	// exact results over recompacted, re-ingested STeMs.
	tk, err := st.Submit(streamWorkload()[6])
	if err != nil {
		t.Fatal(err)
	}
	qr, err := tk.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, qr, want)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSubmitAllocatesNoBuckets submits queries one at a time, as an
// open-loop client whose queries mostly run alone does, over STeMs the
// collector has returned to the empty floor. Admission must not size a
// STeM: its chunks and tables follow the entries built into it (DESIGN.md
// §10), and a rescan the build rule leaves unbuilt allocates none. A hook
// parks each query's first episode before it touches a tuple, so the
// sample after Submit sees admission and that one dispatch; the summed
// EstBytes must not rise.
func TestStreamSubmitAllocatesNoBuckets(t *testing.T) {
	e := streamFixture(t, 2000)
	want := oracleCounts(t, e, streamWorkload())

	var armed atomic.Bool
	parked := make(chan struct{})
	release := make(chan struct{})
	opt := &StreamOptions{Options: Options{Workers: 1, VectorSize: 16, Seed: 11}}
	opt.hooks.EpisodeStart = func(query.InstID, stem.Slot) {
		if armed.CompareAndSwap(true, false) {
			parked <- struct{}{}
			select {
			case <-release:
			case <-time.After(30 * time.Second):
			}
		}
	}
	st, err := e.OpenStream(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	total := func() (bytes int64) {
		for _, s := range st.StemStats() {
			bytes += s.EstBytes
		}
		return
	}
	// Every entry swept and compacted away: the floor the admissions below
	// start from.
	floor := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !atFloor(st) {
			if time.Now().After(deadline) {
				t.Fatalf("STeMs not back at the empty floor: %+v", st.StemStats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// One round creates every instance; its STeMs then return to the floor.
	for _, q := range streamWorkload() {
		tk, err := st.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		qr, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, qr, want)
	}
	floor()

	for _, q := range streamWorkload() {
		before := total()
		armed.Store(true)
		tk, err := st.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-parked:
		case <-time.After(30 * time.Second):
			t.Fatalf("query %s: no episode started after Submit", q.Tag())
		}
		after := total()
		release <- struct{}{}
		if after > before {
			t.Errorf("query %s: STeM EstBytes %d before Submit, %d after it with the first episode parked", q.Tag(), before, after)
		}
		qr, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, qr, want)
		floor()
	}
}

// atFloor reports whether every STeM of st holds no entries and no chunk
// or table.
func atFloor(st *Stream) bool {
	ok := true
	st.sess.WithCompiled(func(_ *query.Batch, ctx *exec.Context, _ bitset.Set) {
		for _, s := range ctx.Stems {
			if s.Len() != 0 || s.EstBytes() != 0 {
				ok = false
			}
		}
	})
	return ok
}

// TestStreamLateProbeReuse submits a query, lets it finish, then submits a
// second query over the same relations: the second must observe probe
// traffic against the pre-built STeMs (shared state reuse, not a rebuild
// from scratch per query).
func TestStreamLateProbeReuse(t *testing.T) {
	e := streamFixture(t, 2000)
	st, err := e.OpenStream(context.Background(), &StreamOptions{
		Options: Options{Workers: 1, VectorSize: 256, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	first, err := st.Submit(streamWorkload()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	var probesBefore int64
	for _, s := range st.StemStats() {
		probesBefore += s.Probes
	}

	second, err := st.Submit(streamWorkload()[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := second.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	var probesAfter, matches int64
	for _, s := range st.StemStats() {
		probesAfter += s.Probes
		matches += s.Matches
	}
	if probesAfter <= probesBefore {
		t.Errorf("late query produced no probe traffic: %d -> %d", probesBefore, probesAfter)
	}
	if matches == 0 {
		t.Error("late query probes found no matches on shared STeMs")
	}
}

// TestStreamFoldsCountersIntoRegistry checks that a stream's work reaches
// the process-wide registry through the same fold a batch uses: STeM
// probes, operator invocations and plan switches all grow over one
// stream's lifetime.
func TestStreamFoldsCountersIntoRegistry(t *testing.T) {
	e := streamFixture(t, 4000)
	before := metrics.Default().Snapshot()
	st, err := e.OpenStream(context.Background(), &StreamOptions{
		Options: Options{Workers: 1, VectorSize: 64, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range streamWorkload() {
		tk, err := st.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	after := metrics.Default().Snapshot()
	if after.StemProbes <= before.StemProbes || after.TotalOps <= before.TotalOps ||
		after.PlanSwitches <= before.PlanSwitches {
		t.Errorf("stream did not fold its counters: stem probes %d -> %d, op invocations %d -> %d, plan switches %d -> %d",
			before.StemProbes, after.StemProbes, before.TotalOps, after.TotalOps,
			before.PlanSwitches, after.PlanSwitches)
	}
}

// TestStreamStemStatsAgreeWithRegistry checks that Stream.StemStats and the
// registry read the same per-STeM counters: after Close, the traffic the
// stream's STeMs report equals what the stream added to the registry.
func TestStreamStemStatsAgreeWithRegistry(t *testing.T) {
	e := streamFixture(t, 2000)
	before := metrics.Default().Snapshot()
	st, err := e.OpenStream(context.Background(), &StreamOptions{
		Options: Options{Workers: 2, VectorSize: 128, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for _, q := range streamWorkload() {
		tk, err := st.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	after := metrics.Default().Snapshot()
	var probes, inserts int64
	for _, s := range st.StemStats() {
		probes += s.Probes
		inserts += s.Inserts
	}
	if probes == 0 || inserts == 0 {
		t.Fatalf("stream STeMs report %d probes, %d inserts; want both non-zero", probes, inserts)
	}
	if d := after.StemProbes - before.StemProbes; d != probes {
		t.Errorf("registry stem probes grew by %d, StemStats reports %d", d, probes)
	}
	if d := after.StemInserts - before.StemInserts; d != inserts {
		t.Errorf("registry stem inserts grew by %d, StemStats reports %d", d, inserts)
	}
}

// TestStreamTicketCancel cancels one query mid-flight: only that query
// aborts (with a partial, lower-bound count); the others complete exactly.
// Each worker's first episode (slots 0 and 1 of two workers) parks until the
// cancel has returned, so the victim cannot finish before it is cancelled.
func TestStreamTicketCancel(t *testing.T) {
	e := streamFixture(t, 6000)
	want := oracleCounts(t, e, streamWorkload())

	const workers = 2
	release := make(chan struct{})
	opt := &StreamOptions{Options: Options{Workers: workers, VectorSize: 64, Seed: 11}}
	opt.hooks.EpisodeStart = func(_ query.InstID, slot stem.Slot) {
		if slot < workers {
			select {
			case <-release:
			case <-time.After(30 * time.Second):
			}
		}
	}
	st, err := e.OpenStream(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for _, q := range streamWorkload() {
		tk, err := st.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	victim := tickets[3]
	victim.Cancel(nil)
	close(release)
	for _, tk := range tickets {
		qr, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if tk == victim {
			if !qr.Aborted || !errors.Is(qr.Err, ErrQueryCancelled) {
				t.Errorf("victim not aborted: %+v", qr)
			}
			if w := want[qr.Tag]; qr.Count > w.Count {
				t.Errorf("victim count %d exceeds exact count %d", qr.Count, w.Count)
			}
			continue
		}
		checkAgainstOracle(t, qr, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamWaitContext ties a context to one ticket: when it expires,
// only that query is cancelled; the stream keeps serving the rest.
func TestStreamWaitContext(t *testing.T) {
	e := streamFixture(t, 6000)
	want := oracleCounts(t, e, streamWorkload())

	st, err := e.OpenStream(context.Background(), &StreamOptions{
		Options: Options{Workers: 1, VectorSize: 64, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for _, q := range streamWorkload() {
		tk, err := st.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the wait aborts its query immediately
	qr, werr := tickets[0].Wait(ctx)
	// The query may legitimately have retired before the cancelled Wait
	// observed it; only a cancellation outcome is checked for consistency.
	if werr != nil && !errors.Is(werr, context.Canceled) {
		t.Fatalf("Wait error = %v, want context.Canceled or nil", werr)
	}
	if qr.Aborted && !errors.Is(qr.Err, context.Canceled) {
		t.Errorf("cancelled ticket result = %+v", qr)
	}
	if werr != nil && !qr.Aborted {
		t.Errorf("Wait returned cancellation but result not aborted: %+v", qr)
	}
	for _, tk := range tickets[1:] {
		res, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, res, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSubmitErrors covers the submission-side error paths.
func TestStreamSubmitErrors(t *testing.T) {
	e := streamFixture(t, 500)
	if _, err := e.OpenStream(context.Background(), &StreamOptions{
		Options: Options{Policy: PolicyGreedy},
	}); err == nil {
		t.Error("plan-replay policy accepted for a stream")
	}
	if _, err := e.OpenStream(context.Background(), &StreamOptions{
		Options: Options{Admissions: []Admission{{AfterFraction: 0.5}}},
	}); err == nil {
		t.Error("batch admissions accepted for a stream")
	}

	st, err := e.OpenStream(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Submit(NewQuery("bad").From("nope")); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := st.Submit(NewQuery("bad2").From("fact").Between("fact", "v", 9, 3)); err == nil {
		t.Error("builder error not surfaced")
	}
	ok, err := st.Submit(NewQuery("ok").From("fact").From("dim").Join("fact", "fk", "dim", "k"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ok.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Submit(NewQuery("late").From("fact")); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("submit after close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Error("Close not idempotent:", err)
	}
}

// TestStreamStatsOnInstanceAdds submits queries that each bring a new
// relation instance into a stream whose workers are mid-episode.
// Under -race it guards the per-instance counters (exec.Context.InstStats)
// and the batch's per-query entries, which workers and retirement callbacks
// read outside the session mutex while a submission extends them under it.
func TestStreamStatsOnInstanceAdds(t *testing.T) {
	e := streamFixture(t, 20000)
	busy := func(tag string) *Query {
		return NewQuery(tag).From("fact").From("dim").Join("fact", "fk", "dim", "k").
			Sum("fact", "v").GroupBy("dim", "g").OrderByKey()
	}
	selfJoin := func(tag, table, col string, n int) *Query {
		q := NewQuery(tag)
		for i := 0; i < n; i++ {
			q.FromAs(table, tag+string(rune('a'+i)))
		}
		for i := 1; i < n; i++ {
			q.Join(tag+"a", col, tag+string(rune('a'+i)), col)
		}
		return q
	}
	// Each of these is the first query to need one more occurrence of its
	// table, so each submission appends instances to the running session.
	adders := []*Query{
		NewQuery("grp0").From("fact").From("grp").Join("fact", "gk", "grp", "gk2").Eq("grp", "h", 1),
		selfJoin("dim2", "dim", "k", 2),
		selfJoin("grp2", "grp", "gk2", 2),
		selfJoin("dim3", "dim", "k", 3),
		selfJoin("grp3", "grp", "gk2", 3),
		selfJoin("dim4", "dim", "k", 4),
	}
	var all []*Query
	for i, q := range adders {
		all = append(all, busy("busy"+string(rune('0'+i))), q)
	}
	want := oracleCounts(t, e, all)

	st, err := e.OpenStream(context.Background(), &StreamOptions{
		Options: Options{Workers: 2, VectorSize: 64, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	var tickets []*Ticket
	for _, q := range all {
		tk, err := st.Submit(q)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		qr, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, qr, want)
	}
	var probes int64
	for _, s := range st.StemStats() {
		probes += s.Probes
	}
	if probes == 0 {
		t.Error("stream folded no probe counters")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
