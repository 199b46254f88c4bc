// Package admission implements the streaming engine's overload protection:
// a bounded in-flight cost budget, per-tenant token-bucket rate limits, and
// the typed errors the public API surfaces when work is rejected or shed.
//
// The controller sits in front of the engine's live admission: Submit asks
// it *before* the engine extends the batch, which does O(batch) set-up work
// under the session mutex the workers take between episodes, so a saturated
// stream rejects cheaply (one controller mutex) instead of making the
// workers wait on set-up for a query that cannot run anyway. Costs are the
// engine's estimated execution nanoseconds (cost.Model over the query's
// relation cardinalities); releases happen at retirement, so the budget
// bounds estimated in-flight work, not just query count.
package admission

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrOverloaded is the sentinel every budget or rate rejection matches via
// errors.Is. The concrete error is an *OverloadError carrying the reason
// and a retry-after hint.
var ErrOverloaded = errors.New("roulette: stream overloaded")

// ErrDeadlineShed is the sentinel matched by queries shed for an unmeetable
// deadline — rejected at submission (estimated cost exceeds the remaining
// budget) or dropped mid-flight when the deadline expires before the
// query's scans drain. The concrete error is a *ShedError.
var ErrDeadlineShed = errors.New("roulette: query shed (deadline unmeetable)")

// RejectReason classifies an admission rejection.
type RejectReason int

// Rejection classes.
const (
	// ReasonBudget: the stream's in-flight cost budget is exhausted.
	ReasonBudget RejectReason = iota
	// ReasonRate: the tenant's token bucket is empty.
	ReasonRate
	// ReasonInjected: a fault-injection hook forced the rejection.
	ReasonInjected
)

// String names the reason.
func (r RejectReason) String() string {
	switch r {
	case ReasonBudget:
		return "budget"
	case ReasonRate:
		return "rate"
	case ReasonInjected:
		return "injected"
	}
	return "unknown"
}

// OverloadError is the typed rejection returned by Controller.Admit. It
// matches ErrOverloaded under errors.Is.
type OverloadError struct {
	Tenant string
	Reason RejectReason
	// RetryAfter estimates when retrying is worthwhile: the token-refill
	// time for rate rejections, the expected budget-drain time for budget
	// rejections. It is a hint, not a reservation.
	RetryAfter time.Duration
}

// Error renders the rejection.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("roulette: stream overloaded (tenant %q, %s limit, retry after %v)",
		e.Tenant, e.Reason, e.RetryAfter)
}

// Is matches the ErrOverloaded sentinel.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// ShedError is the typed error of a deadline-shed query. It matches
// ErrDeadlineShed under errors.Is.
type ShedError struct {
	Tenant string
	// AtSubmit is true when the query was rejected before admission
	// (estimated cost already exceeded the deadline); false when it was
	// shed mid-flight by the expiry watchdog.
	AtSubmit bool
	// Deadline is the query's absolute deadline; Estimate the estimated
	// execution time that made it hopeless (submit-time sheds only).
	Deadline time.Time
	Estimate time.Duration
}

// Error renders the shed.
func (e *ShedError) Error() string {
	if e.AtSubmit {
		return fmt.Sprintf("roulette: query shed at submit (tenant %q: estimated cost %v exceeds deadline)",
			e.Tenant, e.Estimate)
	}
	return fmt.Sprintf("roulette: query shed mid-flight (tenant %q: deadline expired)", e.Tenant)
}

// Is matches the ErrDeadlineShed sentinel.
func (e *ShedError) Is(target error) bool { return target == ErrDeadlineShed }

// TenantOf derives a tenant key from a query tag: the prefix before the
// first '/', or the whole tag when there is none. Tags like "gold/q17" let
// one tenant submit many distinctly tagged queries.
func TenantOf(tag string) string {
	for i := 0; i < len(tag); i++ {
		if tag[i] == '/' {
			return tag[:i]
		}
	}
	return tag
}

// TenantLimit overrides one tenant's rate limit.
type TenantLimit struct {
	// Rate is the sustained admission rate in cost units per second
	// (0 inherits the default; negative disables rate limiting for the
	// tenant).
	Rate float64
	// Burst is the bucket capacity in cost units (0 inherits).
	Burst float64
}

// Hooks are the fault-injection points the chaos harness uses. All fields
// are optional.
type Hooks struct {
	// ForceReject, when non-nil, is consulted on every Admit with the
	// submission sequence number; returning true rejects the submission
	// with ReasonInjected regardless of budget and rate state.
	ForceReject func(tenant string, seq uint64) bool
	// RetireDelay, when non-nil, runs before a retirement is released back
	// to the controller (delayed-retirement injection; it may sleep).
	RetireDelay func(tenant string, seq uint64)
}

// Config parameterizes a Controller.
type Config struct {
	// MaxInFlightCost bounds the summed estimated cost (nanoseconds) of
	// admitted, not-yet-retired queries; 0 means no budget.
	MaxInFlightCost float64
	// DefaultRate / DefaultBurst apply to tenants without an explicit
	// TenantLimit. Zero rate means no rate limiting by default.
	DefaultRate  float64
	DefaultBurst float64
	// Tenants overrides limits per tenant key.
	Tenants map[string]TenantLimit
	// Now is the clock (nil = time.Now; injectable for tests).
	Now func() time.Time
	// Hooks are the chaos-injection points.
	Hooks Hooks
}

// bucket is one tenant's token bucket, refilled lazily on access.
type bucket struct {
	rate   float64 // cost units per second; <= 0 disables
	burst  float64
	tokens float64
	last   time.Time
}

// refill advances the bucket to now.
func (b *bucket) refill(now time.Time) {
	if b.rate <= 0 {
		return
	}
	dt := now.Sub(b.last).Seconds()
	if dt <= 0 {
		return
	}
	b.tokens += dt * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
}

// tenantStats are one tenant's admission counters.
type tenantStats struct {
	Admitted   int64
	Rejected   int64 // budget + rate + injected
	Shed       int64 // deadline sheds recorded via RecordShed
	InFlight   int64 // admitted, not yet released
	CostInUse  float64
	bucketOnce bool
	bucket     bucket
}

// Controller tracks the stream's in-flight cost and per-tenant buckets.
// Safe for concurrent use; all methods are short critical sections.
type Controller struct {
	cfg Config

	mu        sync.Mutex
	inUse     float64 // summed estimated cost of admitted, unreleased queries
	inFlightN int64   // admitted, unreleased query count
	seq       uint64  // submission sequence (fault-injection key)
	tenants   map[string]*tenantStats

	// drainRate tracks the rate at which cost is released (cost units per
	// second), feeding budget-rejection retry-after hints.
	drainRate  float64
	lastDrain  time.Time
	totalAdmit int64
	totalRej   int64
}

// NewController creates a controller.
func NewController(cfg Config) *Controller {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Controller{cfg: cfg, tenants: make(map[string]*tenantStats)}
}

// tenant returns (creating) the tenant's state.
func (c *Controller) tenant(name string) *tenantStats {
	ts := c.tenants[name]
	if ts == nil {
		ts = &tenantStats{}
		lim := c.cfg.Tenants[name]
		ts.bucket = bucket{rate: c.cfg.DefaultRate, burst: c.cfg.DefaultBurst}
		if lim.Rate != 0 {
			ts.bucket.rate = lim.Rate
		}
		if lim.Burst != 0 {
			ts.bucket.burst = lim.Burst
		}
		if ts.bucket.rate > 0 && ts.bucket.burst <= 0 {
			// A rate with no burst would reject everything; default to one
			// second of rate.
			ts.bucket.burst = ts.bucket.rate
		}
		c.tenants[name] = ts
	}
	return ts
}

// Weight is inert and returns 1. It stays because benchmark/layers.go
// calls it.
func (c *Controller) Weight(string) float64 { return 1 }

// Admit charges cost against the budget and the tenant's bucket. On
// success the cost stays charged until Release. On rejection it returns an
// *OverloadError and nothing is charged.
func (c *Controller) Admit(tenant string, cost float64) error {
	if cost < 0 {
		cost = 0
	}
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	seq := c.seq
	c.seq++
	ts := c.tenant(tenant)

	if f := c.cfg.Hooks.ForceReject; f != nil && f(tenant, seq) {
		ts.Rejected++
		c.totalRej++
		return &OverloadError{Tenant: tenant, Reason: ReasonInjected, RetryAfter: time.Millisecond}
	}
	if max := c.cfg.MaxInFlightCost; max > 0 && c.inUse+cost > max {
		ts.Rejected++
		c.totalRej++
		return &OverloadError{Tenant: tenant, Reason: ReasonBudget,
			RetryAfter: c.budgetRetryLocked(c.inUse + cost - max)}
	}
	b := &ts.bucket
	if b.rate > 0 {
		if !ts.bucketOnce {
			// First touch: a fresh bucket starts full.
			b.tokens, b.last = b.burst, now
			ts.bucketOnce = true
		}
		b.refill(now)
		if b.tokens < cost {
			ts.Rejected++
			c.totalRej++
			wait := time.Duration((cost - b.tokens) / b.rate * float64(time.Second))
			return &OverloadError{Tenant: tenant, Reason: ReasonRate,
				RetryAfter: clampRetry(wait)}
		}
		b.tokens -= cost
	}
	c.inUse += cost
	c.inFlightN++
	ts.CostInUse += cost
	ts.InFlight++
	ts.Admitted++
	c.totalAdmit++
	return nil
}

// Release returns an admitted query's cost to the budget (at retirement).
func (c *Controller) Release(tenant string, cost float64) {
	if cost < 0 {
		cost = 0
	}
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	ts := c.tenant(tenant)
	c.inUse -= cost
	if c.inFlightN > 0 {
		c.inFlightN--
	}
	if c.inUse < 0 || c.inFlightN == 0 {
		// Snap float summation residue to zero once nothing is in flight,
		// so an idle budget is exactly full again.
		c.inUse = 0
	}
	ts.CostInUse -= cost
	if ts.InFlight > 0 {
		ts.InFlight--
	}
	if ts.CostInUse < 0 || ts.InFlight == 0 {
		ts.CostInUse = 0
	}
	// Fold the release into the drain-rate estimate (a moving average over
	// release inter-arrival cost/seconds).
	if !c.lastDrain.IsZero() {
		if dt := now.Sub(c.lastDrain).Seconds(); dt > 0 && cost > 0 {
			const alpha = 0.3
			rate := cost / dt
			if c.drainRate == 0 {
				c.drainRate = rate
			} else {
				c.drainRate = alpha*rate + (1-alpha)*c.drainRate
			}
		}
	}
	c.lastDrain = now
}

// RetireDelayHook runs the delayed-retirement injection hook, if any. It
// must be called outside the controller mutex (the hook may sleep).
func (c *Controller) RetireDelayHook(tenant string) {
	if f := c.cfg.Hooks.RetireDelay; f != nil {
		c.mu.Lock()
		seq := c.seq
		c.mu.Unlock()
		f(tenant, seq)
	}
}

// RecordShed counts one deadline shed against the tenant.
func (c *Controller) RecordShed(tenant string) {
	c.mu.Lock()
	c.tenant(tenant).Shed++
	c.mu.Unlock()
}

// budgetRetryLocked estimates how long until `needed` cost units drain.
func (c *Controller) budgetRetryLocked(needed float64) time.Duration {
	if c.drainRate > 0 {
		return clampRetry(time.Duration(needed / c.drainRate * float64(time.Second)))
	}
	return 10 * time.Millisecond
}

// clampRetry bounds a retry hint to a sane window.
func clampRetry(d time.Duration) time.Duration {
	const lo, hi = time.Millisecond, 5 * time.Second
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// TenantSnapshot is one tenant's counters at a point in time.
type TenantSnapshot struct {
	Tenant    string
	Admitted  int64 // submissions admitted
	Rejected  int64 // submissions rejected with ErrOverloaded
	Shed      int64 // queries shed with ErrDeadlineShed
	InFlight  int64 // admitted, not yet retired
	CostInUse float64
}

// Snapshot copies the controller's aggregate and per-tenant counters.
func (c *Controller) Snapshot() (inUse float64, admitted, rejected int64, tenants []TenantSnapshot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tenants = make([]TenantSnapshot, 0, len(c.tenants))
	for name, ts := range c.tenants {
		tenants = append(tenants, TenantSnapshot{
			Tenant: name, Admitted: ts.Admitted, Rejected: ts.Rejected,
			Shed: ts.Shed, InFlight: ts.InFlight, CostInUse: ts.CostInUse,
		})
	}
	return c.inUse, c.totalAdmit, c.totalRej, tenants
}

// InFlightCost returns the summed estimated cost currently admitted.
func (c *Controller) InFlightCost() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inUse
}

// DrainRate returns the moving average of cost units released per second — the rate
// the controller uses to compute RetryAfter hints. 0 until the first
// release. Exposed on the live debug snapshot so an operator can judge
// how fast the in-flight budget is turning over.
func (c *Controller) DrainRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drainRate
}
