package engine

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/obs"
	"github.com/roulette-db/roulette/internal/query"
)

// This file is the session's live introspection surface: the flight-
// recorder plumbing shared by engine.go/stream.go/sched.go, a consistent
// point-in-time DebugSnapshot of the concurrent control plane (scans, GC,
// tenants, workers), and the stall self-diagnosis heuristics behind the
// watchdog goroutine.

// discardHandler is a no-op slog handler (the stdlib gained
// slog.DiscardHandler after this module's language version).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// streamRingEvents is the floor on a streaming session's per-ring capacity:
// events per worker (and for the control plane) kept before the oldest are
// overwritten. 4096 events × 64 bytes = 256 KiB per ring.
const streamRingEvents = 4096

// workers is the size of the session's worker pool.
func (c *Config) workers() int { return max(c.Workers, 1) }

// newRecorder builds the session's flight recorder: always on a stream, on
// a batch only under episode tracing, otherwise nil (every event site is
// nil-safe). One ring per worker plus the control plane's, sized for
// TraceEpisodes episodes that each record their start, totals and end plus
// one action per selection operator and join edge of the batch as compiled
// now. That is an estimate, not a bound (DESIGN.md §9, "What N sizes"): when
// episodes record more, the rings hold fewer whole episodes than asked for
// and the decoder returns only those.
func newRecorder(cfg *Config, b *query.Batch, ctx *exec.Context) *obs.Recorder {
	perRing := 0
	if cfg.Streaming {
		perRing = streamRingEvents
	}
	if n := cfg.TraceEpisodes; n > 0 {
		perRing = max(perRing, n*(3+ctx.NumSelOps()+len(b.Edges)))
	}
	if perRing == 0 {
		return nil
	}
	rec := obs.NewRecorder(cfg.workers()+1, perRing)
	rec.SetVClock(ctx.Versions.Frontier)
	return rec
}

// Recorder exposes the session's flight recorder (nil on an untraced
// batch).
func (s *Session) Recorder() *obs.Recorder { return s.rec }

// recCtl records one control-plane event into the recorder's last ring.
// Allocation-free and safe without the session mutex; call sites pay one
// branch when no recorder is attached.
func (s *Session) recCtl(k obs.Kind, a, b, c, d int64) {
	if s.rec != nil {
		s.rec.Record(s.rec.Rings()-1, k, a, b, c, d)
	}
}

// RecordRefused stamps a submission the caller turned away before it
// reached SubmitLiveMeta — an admission rejection (obs.KReject) or a hopeless
// deadline shed (obs.KShed). The query never received an id, hence -1.
func (s *Session) RecordRefused(k obs.Kind, tenant string) {
	s.recCtl(k, -1, 0, tenantHash(tenant), 0)
}

// Trace decodes the flight recorder back into the last
// Config.TraceEpisodes episodes, oldest first, naming each record's relation
// and fault class; nil when episode tracing is off.
func (s *Session) Trace() []obs.EpisodeTrace {
	if s.cfg.TraceEpisodes <= 0 {
		return nil
	}
	eps := s.rec.Episodes(s.cfg.TraceEpisodes)
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range eps {
		ep := &eps[i]
		ep.Table = s.b.Insts[ep.Inst].Table
		if ep.FaultKind != 0 {
			ep.Fault = FaultKind(ep.FaultKind - 1).String()
		}
	}
	return eps
}

// tenantHash is a stable FNV-1a hash of a tenant name, used to tag
// recorder events with a tenant identity without allocating.
func tenantHash(name string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return int64(h)
}

// InstDebug is one instance's control-plane state in a DebugSnapshot.
type InstDebug struct {
	Inst          int    `json:"inst"`
	Table         string `json:"table"`
	Rank          int    `json:"rank"`
	ActiveQueries []int  `json:"active_queries,omitempty"`
	Delivered     int64  `json:"delivered"`
	Inserted      int64  `json:"inserted"`
	InFlight      int32  `json:"in_flight"`
	StemEntries   int    `json:"stem_entries"`
	StemBytes     int64  `json:"stem_bytes"`
}

// WorkerDebug is one worker's open episode in a DebugSnapshot.
type WorkerDebug struct {
	Worker        int     `json:"worker"`
	Inst          int32   `json:"inst"`
	Slot          int64   `json:"slot"`
	AgeMs         float64 `json:"age_ms"`
	ActiveQueries []int   `json:"active_queries,omitempty"`
}

// TenantDebug is one tenant's scheduler state in a DebugSnapshot.
type TenantDebug struct {
	Tenant           string  `json:"tenant"`
	Weight           float64 `json:"weight"`
	VirtualTime      float64 `json:"virtual_time"`
	Live             int     `json:"live"`
	Starved          bool    `json:"starved"`
	EpisodesUnserved int64   `json:"episodes_unserved"`
}

// GCDebug is the concurrent garbage collector's cursor in a DebugSnapshot.
type GCDebug struct {
	Running        bool  `json:"running"`
	Inst           int   `json:"inst"`
	RetiredPending int   `json:"retired_pending"`
	Sheds          int64 `json:"sheds"`
	StarveBoosts   int64 `json:"starve_boosts"`
}

// DebugSnapshot is a consistent point-in-time view of the streaming
// control plane, taken under the session mutex. It is the payload of the
// /debug/roulette/snapshot endpoint.
type DebugSnapshot struct {
	Streaming      bool  `json:"streaming"`
	Closed         bool  `json:"closed"`
	Episodes       int64 `json:"episodes"`
	InFlight       int   `json:"in_flight"`
	LiveQueries    int   `json:"live_queries"`
	FreeQuerySlots int   `json:"free_query_slots"`

	GC      GCDebug       `json:"gc"`
	Insts   []InstDebug   `json:"instances"`
	Workers []WorkerDebug `json:"workers"`
	Tenants []TenantDebug `json:"tenants,omitempty"`
}

// DebugSnapshot captures the session's control-plane state.
func (s *Session) DebugSnapshot() DebugSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now().UnixNano()
	snap := DebugSnapshot{
		Streaming:      s.cfg.Streaming,
		Closed:         s.closed,
		Episodes:       s.episode,
		InFlight:       s.inFlight,
		LiveQueries:    s.admitted.Count(),
		FreeQuerySlots: s.b.Free(),
		GC: GCDebug{
			Running: s.gc.running, Inst: s.gc.inst,
			RetiredPending: s.retired.Count(),
			Sheds:          s.shedCount, StarveBoosts: s.starveBoosts,
		},
	}
	snap.Insts = make([]InstDebug, len(s.scans))
	for i, st := range s.scans {
		snap.Insts[i] = InstDebug{
			Inst: i, Table: s.b.Insts[i].Table, Rank: st.rank,
			ActiveQueries: st.active.IDs(),
			Delivered:     st.delivered, Inserted: st.inserted,
			StemEntries: s.ctx.Stems[i].Len(),
			StemBytes:   s.ctx.Stems[i].EstBytes(),
		}
	}
	for id := range s.workerEp {
		we := &s.workerEp[id]
		if !we.open {
			continue
		}
		snap.Insts[we.inst].InFlight++
		snap.Workers = append(snap.Workers, WorkerDebug{
			Worker: id, Inst: we.inst, Slot: we.slot,
			AgeMs:         float64(now-we.startNs) / 1e6,
			ActiveQueries: we.active.IDs(),
		})
	}
	for i := range s.tenants {
		ts := &s.tenants[i]
		snap.Tenants = append(snap.Tenants, TenantDebug{
			Tenant: ts.name, Weight: ts.weight, VirtualTime: ts.vtime,
			Live: ts.live, Starved: ts.starved,
			EpisodesUnserved: s.episode - ts.lastService,
		})
	}
	return snap
}

// DiagnoseStall is the age at which an open episode is reported as stalled
// by Stream.Diagnose; the watchdog raises it to its period.
const DiagnoseStall = time.Second

// Finding is one stall diagnosis: which worker's episode is stuck, for how
// long, and which instance and queries it holds.
type Finding struct {
	Kind     string  `json:"kind"`
	Severity string  `json:"severity"`
	Inst     int     `json:"inst"`
	Table    string  `json:"table,omitempty"`
	Worker   int     `json:"worker"`
	Slot     int64   `json:"slot"`
	Queries  []int   `json:"queries,omitempty"`
	AgeMs    float64 `json:"age_ms,omitempty"`
	Detail   string  `json:"detail"`
}

// Diagnose reports every worker whose open episode is older than stall, one
// finding each. It is cheap (an array scan under the mutex) and safe to call
// at any time; the watchdog calls it periodically, and tests call it
// directly with tight thresholds. Starvation is not diagnosed here: the
// scheduler's starvation boost acts on it (starvationSweepLocked), and
// DebugSnapshot shows each tenant's starved flag.
func (s *Session) Diagnose(stall time.Duration) []Finding {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now().UnixNano()
	var out []Finding

	// Stalled episodes: a worker's open episode outliving the threshold.
	for id := range s.workerEp {
		we := &s.workerEp[id]
		if !we.open {
			continue
		}
		age := now - we.startNs
		if age < int64(stall) {
			continue
		}
		qs := we.active.IDs()
		out = append(out, Finding{
			Kind: "stalled_episode", Severity: "critical",
			Inst: int(we.inst), Table: s.b.Insts[we.inst].Table,
			Worker: id, Slot: we.slot, Queries: qs,
			AgeMs: float64(age) / 1e6,
			Detail: fmt.Sprintf(
				"worker %d episode slot %d on instance %d (%s) running %.1fms over queries %v",
				id, we.slot, we.inst, s.b.Insts[we.inst].Table, float64(age)/1e6, qs),
		})
	}
	return out
}

// watchdog periodically self-diagnoses the session and logs one structured
// report per finding. Its stall threshold is max(DiagnoseStall, period), so
// a slow tick cannot flag healthy state.
func (s *Session) watchdog(ctx context.Context, period time.Duration) {
	stall := max(DiagnoseStall, period)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		for _, f := range s.Diagnose(stall) {
			s.logger.LogAttrs(ctx, slog.LevelWarn, "roulette stall diagnosis",
				slog.String("kind", f.Kind),
				slog.String("severity", f.Severity),
				slog.Int("inst", f.Inst),
				slog.String("table", f.Table),
				slog.Int("worker", f.Worker),
				slog.Int64("slot", f.Slot),
				slog.Any("queries", f.Queries),
				slog.Float64("age_ms", f.AgeMs),
				slog.String("detail", f.Detail),
			)
		}
	}
}
