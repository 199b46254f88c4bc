package admission

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestBudgetRejectsAndReleases(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{MaxInFlightCost: 100, Now: clk.Now})
	if err := c.Admit("a", 60); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	if err := c.Admit("a", 30); err != nil {
		t.Fatalf("second admit: %v", err)
	}
	err := c.Admit("b", 20)
	if err == nil {
		t.Fatal("expected budget rejection")
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("rejection must match ErrOverloaded, got %v", err)
	}
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ReasonBudget {
		t.Fatalf("want *OverloadError{ReasonBudget}, got %#v", err)
	}
	if oe.RetryAfter <= 0 {
		t.Fatalf("retry-after hint must be positive, got %v", oe.RetryAfter)
	}
	c.Release("a", 60)
	if err := c.Admit("b", 20); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	if got := c.InFlightCost(); got != 50 {
		t.Fatalf("in-flight cost = %v, want 50", got)
	}
}

func TestTokenBucketRateLimit(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{
		Tenants: map[string]TenantLimit{"slow": {Rate: 100, Burst: 100}},
		Now:     clk.Now,
	})
	// The bucket starts full: 100 units available.
	if err := c.Admit("slow", 80); err != nil {
		t.Fatalf("burst admit: %v", err)
	}
	err := c.Admit("slow", 80)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != ReasonRate {
		t.Fatalf("want rate rejection, got %v", err)
	}
	// 80-20=60 units short at 100/s: retry hint ~600ms.
	if oe.RetryAfter < 500*time.Millisecond || oe.RetryAfter > 700*time.Millisecond {
		t.Fatalf("retry-after = %v, want ~600ms", oe.RetryAfter)
	}
	clk.Advance(time.Second) // refill to burst cap
	if err := c.Admit("slow", 80); err != nil {
		t.Fatalf("admit after refill: %v", err)
	}
	// An unlimited tenant is never rate-rejected.
	for i := 0; i < 100; i++ {
		if err := c.Admit("fast", 1000); err != nil {
			t.Fatalf("unlimited tenant rejected: %v", err)
		}
	}
}

func TestNegativeRateDisablesLimit(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{
		DefaultRate: 1, DefaultBurst: 1,
		Tenants: map[string]TenantLimit{"vip": {Rate: -1}},
		Now:     clk.Now,
	})
	for i := 0; i < 10; i++ {
		if err := c.Admit("vip", 100); err != nil {
			t.Fatalf("vip admit %d: %v", i, err)
		}
	}
	if err := c.Admit("other", 100); err == nil {
		t.Fatal("default-rate tenant should be rejected")
	}
}

func TestForceRejectHook(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{
		Now: clk.Now,
		Hooks: Hooks{ForceReject: func(tenant string, seq uint64) bool {
			return seq%2 == 0
		}},
	})
	var rejected int
	for i := 0; i < 10; i++ {
		if err := c.Admit("t", 1); err != nil {
			var oe *OverloadError
			if !errors.As(err, &oe) || oe.Reason != ReasonInjected {
				t.Fatalf("want injected rejection, got %v", err)
			}
			rejected++
		}
	}
	if rejected != 5 {
		t.Fatalf("rejected %d of 10, want 5", rejected)
	}
}

func TestShedErrorMatchesSentinel(t *testing.T) {
	err := error(&ShedError{Tenant: "t", AtSubmit: true, Estimate: time.Second})
	if !errors.Is(err, ErrDeadlineShed) {
		t.Fatal("ShedError must match ErrDeadlineShed")
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatal("ShedError must not match ErrOverloaded")
	}
	var se *ShedError
	if !errors.As(err, &se) || !se.AtSubmit {
		t.Fatalf("errors.As round-trip failed: %#v", err)
	}
}

func TestTenantOf(t *testing.T) {
	cases := map[string]string{
		"gold/q17": "gold",
		"gold":     "gold",
		"a/b/c":    "a",
		"":         "",
		"/x":       "",
	}
	for tag, want := range cases {
		if got := TenantOf(tag); got != want {
			t.Errorf("TenantOf(%q) = %q, want %q", tag, got, want)
		}
	}
}

func TestSnapshotCounters(t *testing.T) {
	clk := newFakeClock()
	c := NewController(Config{MaxInFlightCost: 10, Now: clk.Now})
	_ = c.Admit("a", 8)
	_ = c.Admit("a", 8) // rejected
	c.RecordShed("a")
	inUse, admitted, rejected, tenants := c.Snapshot()
	if inUse != 8 || admitted != 1 || rejected != 1 {
		t.Fatalf("snapshot = (%v, %d, %d), want (8, 1, 1)", inUse, admitted, rejected)
	}
	if len(tenants) != 1 || tenants[0].Shed != 1 || tenants[0].InFlight != 1 {
		t.Fatalf("tenant snapshot wrong: %+v", tenants)
	}
}

// TestConcurrentAdmitRelease exercises the controller under -race: the
// budget invariant (inUse never exceeds max, never goes negative) must hold
// across concurrent admits and releases.
func TestConcurrentAdmitRelease(t *testing.T) {
	c := NewController(Config{MaxInFlightCost: 1000})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := string(rune('a' + g%4))
			for i := 0; i < 500; i++ {
				if err := c.Admit(tenant, 10); err == nil {
					c.Release(tenant, 10)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.InFlightCost(); got != 0 {
		t.Fatalf("in-flight cost after drain = %v, want 0", got)
	}
}

// TestWeightIsInert pins the Weight shim: it returns 1 for every tenant,
// configured or not, and leaves no per-tenant state behind.
func TestWeightIsInert(t *testing.T) {
	c := NewController(Config{Tenants: map[string]TenantLimit{"gold": {Rate: 5}}})
	for _, tenant := range []string{"gold", "other", ""} {
		if w := c.Weight(tenant); w != 1 {
			t.Errorf("Weight(%q) = %v, want 1", tenant, w)
		}
	}
	if _, _, _, tenants := c.Snapshot(); len(tenants) != 0 {
		t.Errorf("Weight created tenant state: %+v", tenants)
	}
}
