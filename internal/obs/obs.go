// Package obs implements the engine's flight recorder: fixed-size,
// lock-free per-worker rings of typed events (episode lifecycle, admission,
// GC, retirement and, under episode tracing, each episode's
// execution log) that are cheap enough to leave on in production. It is the
// engine's only event transport: the rings are merged on demand into a single
// causal timeline (Snapshot, exported by WriteTrace) or decoded back into
// per-episode records (Episodes).
//
// Design: each ring is a power-of-two array of fully atomic slots claimed
// by a single fetch-add on the ring's position counter. A writer
// invalidates the claimed slot (seq←0), stores the payload fields, then
// publishes by storing the claim number into seq. A reader validates seq
// before and after copying the fields and drops the event if either check
// fails (torn or overwritten slot). This is a seqlock inverted per slot:
// writers never block, readers never block writers, and the race detector
// sees only atomic operations. Recording performs zero heap allocations,
// so the episode hot path keeps its 0 allocs/op guarantee with the
// recorder enabled.
//
// Events are stamped with both wall-clock nanoseconds (for Chrome
// trace_event export) and the engine's version-clock frontier (for causal
// ordering against STeM publication), and carry four int64 arguments whose
// meaning depends on the event kind (see kindArgs).
package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Kind identifies the type of a recorded event. What a kind's four
// argument slots hold is named in kindArgs, the one table the exporter, the
// decoder and DESIGN.md's event table are written from.
type Kind uint8

const (
	KNone Kind = iota

	// KEpisodeStart: a worker began an episode.
	KEpisodeStart
	// KEpisodeEnd: a worker finished an episode (faulted or not).
	KEpisodeEnd
	// KSubmit: a query entered the engine via SubmitLiveMeta.
	KSubmit
	// KAdmit: a pending query activated (its scans became schedulable).
	KAdmit
	// KReject: admission control rejected a submission. The query id is -1:
	// a rejected submission never receives one.
	KReject
	// KShed: a query was shed — at submit time (hopeless deadline, query id
	// -1) or mid-flight (expired deadline).
	KShed
	// KGCQuantum: a concurrent GC quantum swept one instance's STeM.
	KGCQuantum
	// KGCCompact: the quantum compacted the STeM it swept.
	KGCCompact
	// KRetire: a query retired, completed or failed.
	KRetire
	// KCallback: retirement callbacks were handed off.
	KCallback
	// KAction: one entry of the episode's execution log — the operator the
	// policy chose and what it did. phase is policy.Phase (0 selection, 1
	// join); op is a selection-operator ID or a join-edge ID accordingly.
	// Recorded between the episode's start and end, in execution order,
	// only under episode tracing.
	KAction
	// KEpisodeWork: the episode's totals — tuples ingested, tuples entering
	// the join phase, the cost-model total (math.Float64bits) and the fault
	// class that aborted it (0 none, else 1 + the engine's FaultKind).
	// Recorded once per episode after its actions, only under episode
	// tracing.
	KEpisodeWork
)

var kindNames = [...]string{
	KNone:         "none",
	KEpisodeStart: "episode_start",
	KEpisodeEnd:   "episode",
	KSubmit:       "submit",
	KAdmit:        "admit",
	KReject:       "reject",
	KShed:         "shed",
	KGCQuantum:    "gc_quantum",
	KGCCompact:    "gc_compact",
	KRetire:       "retire",
	KCallback:     "callback",
	KAction:       "action",
	KEpisodeWork:  "episode_work",
}

// kindArgs names each kind's A..D argument slots; "" marks a slot the kind
// does not use. tenant is the FNV-1a hash of the tenant name (names stay out
// of the fixed-width slots); *_ns are nanoseconds.
var kindArgs = [...][4]string{
	KEpisodeStart: {"inst", "slot", "active_w0", "active"},
	KEpisodeEnd:   {"inst", "slot", "dur_ns", "plan_sig"},
	KSubmit:       {"qid", "", "tenant"},
	KAdmit:        {"qid"},
	KReject:       {"qid", "", "tenant"},
	KShed:         {"qid", "midflight", "tenant"},
	KGCQuantum:    {"inst", "dead"},
	KGCCompact:    {"inst", "live"},
	KRetire:       {"qid", "completed"},
	KCallback:     {"n"},
	KAction:       {"phase", "op", "n_in", "n_out"},
	KEpisodeWork:  {"input", "join_input", "cost_bits", "fault"},
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one decoded flight-recorder entry.
type Event struct {
	TS   int64 // wall-clock nanoseconds
	VC   int64 // version-clock frontier at record time; ticks once per published episode
	Seq  uint64
	Ring int32
	Kind Kind
	A    int64
	B    int64
	C    int64
	D    int64
}

// slot is one ring entry. Every field is atomic so concurrent
// record/drain is race-detector clean; seq==0 marks an in-progress write.
// Eight 8-byte words: exactly one cache line on common hardware.
type slot struct {
	seq  atomic.Uint64
	ts   atomic.Int64
	vc   atomic.Int64
	kind atomic.Uint64
	a    atomic.Int64
	b    atomic.Int64
	c    atomic.Int64
	d    atomic.Int64
}

// ring is one per-worker event ring. pos is padded so claims by
// different workers (control ring vs worker rings) do not false-share.
type ring struct {
	pos   atomic.Uint64
	_     [56]byte
	mask  uint64
	slots []slot
}

// Recorder holds one ring per worker plus, by convention, one extra
// control ring (the last) for control-plane events. A nil *Recorder is a
// safe no-op for Record.
type Recorder struct {
	vclock atomic.Pointer[func() int64]
	nowFn  func() int64 // test seam; wall clock by default
	rings  []ring
}

// NewRecorder creates a recorder with rings rings of perRing slots each
// (rounded up to a power of two, minimum 8).
func NewRecorder(rings, perRing int) *Recorder {
	if rings < 1 {
		rings = 1
	}
	n := 8
	for n < perRing {
		n <<= 1
	}
	r := &Recorder{nowFn: wallNow, rings: make([]ring, rings)}
	for i := range r.rings {
		r.rings[i].mask = uint64(n - 1)
		r.rings[i].slots = make([]slot, n)
	}
	return r
}

func wallNow() int64 { return time.Now().UnixNano() }

// SetVClock installs the version-clock read used to stamp events with a
// causal timestamp. fn must be safe for concurrent use and must not
// advance the clock (use a frontier read, not a draw).
func (r *Recorder) SetVClock(fn func() int64) {
	if fn == nil {
		r.vclock.Store(nil)
		return
	}
	r.vclock.Store(&fn)
}

// SetNow overrides the wall-clock source. Test-only seam; call before any
// Record.
func (r *Recorder) SetNow(fn func() int64) { r.nowFn = fn }

// Rings returns the number of rings. Nil-safe.
func (r *Recorder) Rings() int {
	if r == nil {
		return 0
	}
	return len(r.rings)
}

// Record appends an event to ring ri. Nil-safe, lock-free, and
// allocation-free; concurrent writers to the same ring are safe (a torn
// overwrite is detected and dropped at read time via the seq protocol).
func (r *Recorder) Record(ri int, k Kind, a, b, c, d int64) {
	if r == nil {
		return
	}
	rg := &r.rings[ri]
	n := rg.pos.Add(1)
	s := &rg.slots[(n-1)&rg.mask]
	s.seq.Store(0)
	s.ts.Store(r.nowFn())
	var vc int64
	if p := r.vclock.Load(); p != nil {
		vc = (*p)()
	}
	s.vc.Store(vc)
	s.kind.Store(uint64(k))
	s.a.Store(a)
	s.b.Store(b)
	s.c.Store(c)
	s.d.Store(d)
	s.seq.Store(n)
}

// drainRing copies the currently valid events of ring ri into out.
func (r *Recorder) drainRing(ri int, out []Event) []Event {
	rg := &r.rings[ri]
	hi := rg.pos.Load()
	if hi == 0 {
		return out
	}
	lo := uint64(1)
	if cap := uint64(len(rg.slots)); hi > cap {
		lo = hi - cap + 1
	}
	for e := lo; e <= hi; e++ {
		s := &rg.slots[(e-1)&rg.mask]
		if s.seq.Load() != e {
			continue // torn, unpublished, or already overwritten
		}
		ev := Event{
			TS:   s.ts.Load(),
			VC:   s.vc.Load(),
			Seq:  e,
			Ring: int32(ri),
			Kind: Kind(s.kind.Load()),
			A:    s.a.Load(),
			B:    s.b.Load(),
			C:    s.c.Load(),
			D:    s.d.Load(),
		}
		if s.seq.Load() != e {
			continue // overwritten while copying
		}
		out = append(out, ev)
	}
	return out
}

// Snapshot merges every ring into a single timeline ordered by
// (wall time, ring, sequence). Within one ring events are guaranteed
// monotonically ordered by Seq; across rings the wall clock provides the
// causal merge (version-clock stamps break residual ties for analysis).
// Nil-safe.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for i := range r.rings {
		out = r.drainRing(i, out)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TS != out[j].TS {
			return out[i].TS < out[j].TS
		}
		if out[i].Ring != out[j].Ring {
			return out[i].Ring < out[j].Ring
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Since returns the merged timeline restricted to events with TS >= ts.
func (r *Recorder) Since(ts int64) []Event {
	evs := r.Snapshot()
	i := sort.Search(len(evs), func(i int) bool { return evs[i].TS >= ts })
	return evs[i:]
}
