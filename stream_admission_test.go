package roulette

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/roulette-db/roulette/internal/faults"
	"github.com/roulette-db/roulette/internal/metrics"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/stem"
)

// TestStreamSentinelRoundTrips pins the public error contract: every typed
// rejection matches its sentinel through errors.Is and unwraps to its
// concrete type through errors.As.
func TestStreamSentinelRoundTrips(t *testing.T) {
	e := streamFixture(t, 2000)
	st, err := e.OpenStream(context.Background(), &StreamOptions{
		Options:   Options{Seed: 11},
		Admission: &AdmissionOptions{MaxInFlightCost: 1}, // everything over budget
	})
	if err != nil {
		t.Fatal(err)
	}

	_, err = st.Submit(streamWorkload()[0])
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("budget rejection = %v, want ErrOverloaded match", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("budget rejection not an *OverloadError: %#v", err)
	}
	if oe.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", oe.RetryAfter)
	}
	if errors.Is(err, ErrDeadlineShed) || errors.Is(err, ErrStreamClosed) {
		t.Error("overload error matches unrelated sentinels")
	}

	_, err = st.Submit(streamWorkload()[0].WithDeadline(time.Nanosecond))
	if !errors.Is(err, ErrDeadlineShed) {
		t.Fatalf("hopeless-deadline submit = %v, want ErrDeadlineShed match", err)
	}
	var se *ShedError
	if !errors.As(err, &se) || !se.AtSubmit {
		t.Fatalf("want submit-time *ShedError, got %#v", err)
	}
	if se.Estimate <= 0 {
		t.Error("submit-time shed carries no cost estimate")
	}
	if errors.Is(err, ErrOverloaded) {
		t.Error("shed error matches ErrOverloaded")
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Submit(streamWorkload()[0]); !errors.Is(err, ErrStreamClosed) {
		t.Errorf("submit after close = %v, want ErrStreamClosed", err)
	}
}

// TestStreamAdmissionBudget exercises the in-flight cost budget end to end:
// a stream whose budget fits one query at a time must reject a concurrent
// second submission with ErrOverloaded, admit it again after the first
// retires, and drain its accounting to zero. The first query's first
// episode is parked until the second submission has been refused, so the
// first query cannot retire before it.
func TestStreamAdmissionBudget(t *testing.T) {
	e := streamFixture(t, 4000)
	q := streamWorkload()[0]
	probe, err := e.OpenStream(context.Background(), &StreamOptions{Options: Options{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	est := probe.estimateCost(&q.q)
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	if est <= 0 {
		t.Fatalf("estimateCost = %v, want > 0", est)
	}

	var armed atomic.Bool
	parked := make(chan struct{})
	release := make(chan struct{})
	opt := &StreamOptions{
		Options:   Options{Workers: 2, VectorSize: 256, Seed: 11},
		Admission: &AdmissionOptions{MaxInFlightCost: 1.5 * est},
	}
	opt.hooks.EpisodeStart = func(query.InstID, stem.Slot) {
		if armed.CompareAndSwap(false, true) {
			close(parked)
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
	tk1, err := st.Submit(streamWorkload()[0])
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-parked:
	case <-time.After(30 * time.Second):
		t.Fatal("the first query's first episode never started")
	}
	_, err = st.Submit(streamWorkload()[1])
	close(release)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second concurrent submit = %v, want ErrOverloaded", err)
	}
	if _, err := tk1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The first query retired and released its budget; the stream admits
	// again (the release happens before the ticket resolves, so no retry
	// loop is needed).
	tk2, err := st.Submit(streamWorkload()[1])
	if err != nil {
		t.Fatalf("submit after release: %v", err)
	}
	if _, err := tk2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	inUse, admitted, rejected, _ := st.AdmissionStats()
	if inUse != 0 {
		t.Errorf("in-flight cost after drain = %v, want 0", inUse)
	}
	if admitted != 2 || rejected != 1 {
		t.Errorf("admitted/rejected = %d/%d, want 2/1", admitted, rejected)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamTenantRateLimit gives one tenant a token bucket sized for a
// single query: its second submission is rate-rejected with a retry hint
// while an unlimited tenant keeps submitting freely.
func TestStreamTenantRateLimit(t *testing.T) {
	e := streamFixture(t, 2000)
	q := streamWorkload()[0]
	probe, err := e.OpenStream(context.Background(), &StreamOptions{Options: Options{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	est := probe.estimateCost(&q.q)
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := e.OpenStream(context.Background(), &StreamOptions{
		Options: Options{Seed: 11},
		Admission: &AdmissionOptions{
			Tenants: map[string]TenantLimit{
				// Refill is slow enough that the second submission inside
				// this test cannot scrape together another est of tokens.
				"slow": {Rate: est / 100, Burst: 1.1 * est},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(tenant string, i int) *Query {
		return streamWorkload()[0].WithTag(fmt.Sprintf("%s/q%d", tenant, i))
	}
	tk, err := st.Submit(mk("slow", 0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Submit(mk("slow", 1))
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("second slow-tenant submit = %v, want rate rejection", err)
	}
	if oe.Tenant != "slow" || oe.RetryAfter <= 0 {
		t.Errorf("rejection = %+v, want tenant slow with positive retry hint", oe)
	}
	for i := 0; i < 4; i++ {
		fk, err := st.Submit(mk("free", i))
		if err != nil {
			t.Fatalf("unlimited tenant submit %d: %v", i, err)
		}
		if _, err := fk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// shedFixture builds two disjoint table groups so one tenant's work cannot
// ride along on another's shared scans: heavy(fk, v) ⋈ hdim(k), and a
// small standalone vict(v).
func shedFixture(t *testing.T, heavyRows int) *Engine {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	const nd = 64
	fk := make([]int64, heavyRows)
	v := make([]int64, heavyRows)
	for i := range fk {
		fk[i] = int64(rng.Intn(nd))
		v[i] = int64(rng.Intn(1000))
	}
	dk := make([]int64, nd)
	for i := range dk {
		dk[i] = int64(i)
	}
	vv := make([]int64, 4096)
	for i := range vv {
		vv[i] = int64(rng.Intn(100))
	}
	e := NewEngine()
	e.MustCreateTable("heavy", ColSlice("fk", fk), ColSlice("v", v))
	e.MustCreateTable("hdim", ColSlice("k", dk))
	e.MustCreateTable("vict", ColSlice("vv", vv))
	return e
}

// TestStreamDeadlineShedMidFlight pins graceful degradation: a query whose
// deadline expires while another tenant's work holds the only worker is
// shed mid-flight with ErrDeadlineShed and a partial result — it does not
// hang, and the other tenant's queries finish unharmed. The hogs' first
// episode stays parked until the victim's deadline has passed, so the
// victim runs no episode before the shed, whatever the timing.
func TestStreamDeadlineShedMidFlight(t *testing.T) {
	e := shedFixture(t, 400_000)
	var armed atomic.Bool
	parked := make(chan struct{})
	release := make(chan struct{})
	opt := &StreamOptions{
		Options:   Options{Workers: 1, VectorSize: 256, Seed: 11},
		Admission: &AdmissionOptions{},
	}
	opt.hooks.EpisodeStart = func(query.InstID, stem.Slot) {
		if armed.CompareAndSwap(false, true) {
			close(parked)
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
	heavy := func(i int) *Query {
		return NewQuery(fmt.Sprintf("hog/q%d", i)).
			From("heavy").From("hdim").Join("heavy", "fk", "hdim", "k")
	}
	var hogs []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := st.Submit(heavy(i))
		if err != nil {
			t.Fatal(err)
		}
		hogs = append(hogs, tk)
		if i == 0 {
			select {
			case <-parked:
			case <-time.After(30 * time.Second):
				t.Fatal("the first hog's first episode never started")
			}
		}
	}
	victim, err := st.Submit(NewQuery("meek/q0").From("vict").WithDeadline(2 * time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	// Submit stamped the deadline before it returned: once 2 ms more have
	// passed it has expired, and the worker's next pick sheds the victim.
	time.Sleep(3 * time.Millisecond)
	close(release)

	qr, err := victim.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !qr.Aborted || !errors.Is(qr.Err, ErrDeadlineShed) {
		t.Fatalf("victim result = %+v, want mid-flight deadline shed", qr)
	}
	var se *ShedError
	if !errors.As(qr.Err, &se) || se.AtSubmit {
		t.Fatalf("victim error = %#v, want mid-flight *ShedError", qr.Err)
	}
	for _, tk := range hogs {
		hr, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if hr.Aborted {
			t.Errorf("hog query %s aborted: %v", hr.Tag, hr.Err)
		}
	}
	_, _, _, tenants := st.AdmissionStats()
	for _, ts := range tenants {
		if ts.Tenant == "meek" && ts.Shed != 1 {
			t.Errorf("meek tenant shed count = %d, want 1", ts.Shed)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamRateLimitedTenantRetiresWithSLOs saturates a stream with a
// heavy tenant class while a rate-limited light tenant submits alongside:
// every query of both tenants must retire, and both tenants must report
// finite, ordered retire-latency percentiles.
func TestStreamRateLimitedTenantRetiresWithSLOs(t *testing.T) {
	e := streamFixture(t, 3000)
	st, err := e.OpenStream(context.Background(), &StreamOptions{
		Options:    Options{Workers: 2, VectorSize: 128, Seed: 11},
		MaxQueries: 8,
		Admission: &AdmissionOptions{
			Tenants: map[string]TenantLimit{
				"fbronze": {Rate: 5e8, Burst: 1e9},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(q *Query) *Ticket {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for {
			tk, err := st.Submit(q)
			if err == nil {
				return tk
			}
			var oe *OverloadError
			switch {
			case errors.Is(err, ErrStreamFull):
				time.Sleep(200 * time.Microsecond)
			case errors.As(err, &oe):
				time.Sleep(oe.RetryAfter)
			default:
				t.Fatalf("submit %s: %v", q.Tag(), err)
			}
			if time.Now().After(deadline) {
				t.Fatalf("submit %s: starved out after 30s", q.Tag())
			}
		}
	}

	base := streamWorkload()
	var gold, bronze []*Ticket
	for r := 0; r < 3; r++ {
		for i := 0; i < 6; i++ {
			q := base[i%len(base)].WithTag(fmt.Sprintf("fgold/r%dq%d", r, i))
			gold = append(gold, submit(q))
		}
		for i := 0; i < 2; i++ {
			q := base[(i+6)%len(base)].WithTag(fmt.Sprintf("fbronze/r%dq%d", r, i))
			bronze = append(bronze, submit(q))
		}
	}
	waitAll := func(tks []*Ticket, class string) {
		t.Helper()
		for _, tk := range tks {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			qr, err := tk.Wait(ctx)
			cancel()
			if err != nil {
				t.Fatalf("%s query starved: %v", class, err)
			}
			if qr.Aborted {
				t.Fatalf("%s query %s aborted: %v", class, qr.Tag, qr.Err)
			}
		}
	}
	waitAll(bronze, "bronze")
	waitAll(gold, "gold")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	snap := metrics.Default().Snapshot()
	seen := map[string]bool{}
	for _, ts := range snap.Tenants {
		if ts.Tenant != "fgold" && ts.Tenant != "fbronze" {
			continue
		}
		seen[ts.Tenant] = true
		if ts.Retired < 6 {
			t.Errorf("tenant %s retired %d queries, want >= 6", ts.Tenant, ts.Retired)
		}
		if ts.RetireP50Us <= 0 || ts.RetireP95Us <= 0 || ts.RetireP95Us < ts.RetireP50Us {
			t.Errorf("tenant %s latency percentiles p50=%d p95=%d not finite/ordered",
				ts.Tenant, ts.RetireP50Us, ts.RetireP95Us)
		}
	}
	if !seen["fgold"] || !seen["fbronze"] {
		t.Errorf("per-tenant SLO metrics missing a class: %v", seen)
	}
}

// TestStreamAdmissionChaos hammers a budget-constrained stream from several
// goroutines under injected admission rejections, injected retirement
// delays, and random cancellations. Invariants (run with -race): every
// accepted submission resolves exactly one terminal ticket outcome, no
// admission charge leaks, and the injected faults actually fired.
func TestStreamAdmissionChaos(t *testing.T) {
	e := streamFixture(t, 2000)
	q := streamWorkload()[0]
	probe, err := e.OpenStream(context.Background(), &StreamOptions{Options: Options{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	est := probe.estimateCost(&q.q)
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}

	inj := faults.New(faults.Config{
		Seed:              42,
		SubmitRejectEvery: 3,
		RetireDelayEvery:  2,
		RetireDelay:       100 * time.Microsecond,
	})
	opt := &StreamOptions{
		Options:    Options{Workers: 3, VectorSize: 128, Seed: 11},
		MaxQueries: 16,
		Admission:  &AdmissionOptions{MaxInFlightCost: 3 * est},
	}
	opt.Admission.hooks = inj.AdmissionHooks()
	st, err := e.OpenStream(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, perG = 4, 25
	var wg sync.WaitGroup
	var mu sync.Mutex
	var tickets []*Ticket
	var overloads int
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				q := streamWorkload()[i%4].WithTag(fmt.Sprintf("c%d/q%d", g, i))
				var tk *Ticket
				deadline := time.Now().Add(30 * time.Second)
				for {
					var err error
					tk, err = st.Submit(q)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrStreamFull) {
						t.Errorf("goroutine %d submit: %v", g, err)
						return
					}
					if errors.Is(err, ErrOverloaded) {
						mu.Lock()
						overloads++
						mu.Unlock()
					}
					if time.Now().After(deadline) {
						t.Errorf("goroutine %d: submission starved", g)
						return
					}
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				}
				if rng.Intn(4) == 0 {
					tk.Cancel(nil)
				}
				mu.Lock()
				tickets = append(tickets, tk)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	// Every accepted submission must reach exactly one terminal outcome; a
	// double resolution would panic closing the ticket's done channel, a
	// leak would hang this loop (bounded by the context).
	for _, tk := range tickets {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		qr, err := tk.Wait(ctx)
		cancel()
		if err != nil {
			t.Fatalf("ticket leaked (no terminal outcome): %v", err)
		}
		if qr.Aborted && qr.Err == nil {
			t.Errorf("aborted ticket %s carries no cause", qr.Tag)
		}
	}
	inUse, admitted, _, _ := st.AdmissionStats()
	if inUse != 0 {
		t.Errorf("in-flight cost after all tickets resolved = %v, want 0 (charge leak)", inUse)
	}
	if admitted < int64(len(tickets)) {
		t.Errorf("admitted %d < %d resolved tickets", admitted, len(tickets))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if inj.SubmitRejects() == 0 {
		t.Error("no injected admission rejections fired")
	}
	if overloads == 0 {
		t.Error("no ErrOverloaded observed despite injected rejections")
	}
	if inj.RetireDelays() == 0 {
		t.Error("no injected retirement delays fired")
	}
}
