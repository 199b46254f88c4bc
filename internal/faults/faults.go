// Package faults provides deterministic, seed-driven fault injection for
// chaos-testing the engine's episode fault boundary: injected episode
// panics, slow episodes, and STeM insertion failures. Decisions are keyed
// off the episode's number (EpisodeInput.Slot, which the engine draws as it
// hands out the vector), not call order, so a given (seed, workload) pair
// injects the same faults regardless of goroutine interleaving within a
// pass.
//
// Wire an injector into a run through exec.Options:
//
//	inj := faults.New(faults.Config{Seed: 1, PanicEvery: 16})
//	opt := exec.DefaultOptions()
//	opt.Hooks = inj.Hooks()
package faults

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/roulette-db/roulette/internal/admission"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/stem"
)

// Config selects which faults to inject and how often. Every "Every" field
// is a 1-in-N rate over episodes (0 disables that fault class); which
// episodes are hit is a deterministic function of Seed and the episode's
// slot number.
type Config struct {
	Seed int64

	// PanicEvery panics ~1-in-N episodes at episode start.
	PanicEvery int

	// SlowEvery sleeps SlowDelay at the start of ~1-in-N episodes
	// (watchdog and deadline testing).
	SlowEvery int
	SlowDelay time.Duration

	// InsertFailEvery fails ~1-in-N episodes' STeM insertion with an error.
	InsertFailEvery int

	// SubmitRejectEvery forces ~1-in-N stream submissions to be rejected by
	// the admission controller with ErrOverloaded (ReasonInjected), keyed by
	// submission sequence number.
	SubmitRejectEvery int

	// RetireDelayEvery sleeps RetireDelay before ~1-in-N retirements are
	// released back to the admission controller (delayed-retirement
	// injection; stresses budget accounting and retry-after estimation).
	RetireDelayEvery int
	RetireDelay      time.Duration
}

// InjectedPanic is the value injected crashes panic with, so chaos tests
// can tell injected faults from genuine bugs.
type InjectedPanic struct {
	Inst query.InstID
	Slot stem.Slot
}

// String renders the panic value.
func (p InjectedPanic) String() string {
	return fmt.Sprintf("faults: injected panic (inst %d, slot %d)", p.Inst, p.Slot)
}

// Injector injects faults per its Config. Safe for concurrent use; the
// counters report how many faults actually fired.
type Injector struct {
	cfg                        Config
	panics, slows, insertFails atomic.Int64
	submitRejects, retireLags  atomic.Int64
}

// New creates an injector.
func New(cfg Config) *Injector { return &Injector{cfg: cfg} }

// mix is the splitmix64 finalizer: a cheap, well-distributed 64-bit mixer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// hits reports whether the fault class salted with salt fires for slot.
func (in *Injector) hits(salt uint64, slot stem.Slot, every int) bool {
	if every <= 0 {
		return false
	}
	h := mix(uint64(in.cfg.Seed)*0x9E3779B97F4A7C15 + salt<<32 + uint64(slot))
	return h%uint64(every) == 0
}

// Hooks binds the injector to the executor's episode hooks.
func (in *Injector) Hooks() exec.Hooks {
	return exec.Hooks{
		EpisodeStart: func(inst query.InstID, slot stem.Slot) {
			if in.hits(1, slot, in.cfg.SlowEvery) {
				in.slows.Add(1)
				time.Sleep(in.cfg.SlowDelay)
			}
			if in.hits(2, slot, in.cfg.PanicEvery) {
				in.panics.Add(1)
				panic(InjectedPanic{Inst: inst, Slot: slot})
			}
		},
		StemInsert: func(inst query.InstID, slot stem.Slot) error {
			if in.hits(3, slot, in.cfg.InsertFailEvery) {
				in.insertFails.Add(1)
				return fmt.Errorf("faults: injected STeM insertion failure (inst %d, slot %d)", inst, slot)
			}
			return nil
		},
	}
}

// AdmissionHooks binds the injector to the admission controller's chaos
// points. Submit rejections are keyed by submission sequence number, so a
// given (seed, submission order) pair rejects the same submissions.
// Retirement delays are keyed by the controller's sequence counter at
// retire time, which depends on interleaving — delays are statistically
// 1-in-N but not replay-exact.
func (in *Injector) AdmissionHooks() admission.Hooks {
	return admission.Hooks{
		ForceReject: func(tenant string, seq uint64) bool {
			if in.hits(4, stem.Slot(seq), in.cfg.SubmitRejectEvery) {
				in.submitRejects.Add(1)
				return true
			}
			return false
		},
		RetireDelay: func(tenant string, seq uint64) {
			if in.hits(5, stem.Slot(seq), in.cfg.RetireDelayEvery) {
				in.retireLags.Add(1)
				time.Sleep(in.cfg.RetireDelay)
			}
		},
	}
}

// Panics returns the number of injected panics so far.
func (in *Injector) Panics() int64 { return in.panics.Load() }

// Slows returns the number of injected slow episodes so far.
func (in *Injector) Slows() int64 { return in.slows.Load() }

// InsertFails returns the number of injected insertion failures so far.
func (in *Injector) InsertFails() int64 { return in.insertFails.Load() }

// SubmitRejects returns the number of injected admission rejections so far.
func (in *Injector) SubmitRejects() int64 { return in.submitRejects.Load() }

// RetireDelays returns the number of injected retirement delays so far.
func (in *Injector) RetireDelays() int64 { return in.retireLags.Load() }
