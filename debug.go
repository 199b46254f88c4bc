package roulette

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/obs"
)

// EngineSnapshot is a point-in-time view of a stream's engine internals:
// per-instance scan state and in-flight episodes, the open episode of each
// worker, the GC cursor, and STeM occupancy.
// See Stream.DebugSnapshot.
type EngineSnapshot = engine.DebugSnapshot

// DebugFinding is one stall diagnosis produced by Stream.Diagnose or the
// stall watchdog: a long-running episode, with the blocking instance,
// worker and queries named.
type DebugFinding = engine.Finding

// DebugSnapshot captures the stream's live engine state without stopping
// it: the snapshot is taken under the scheduler mutex between episodes, so
// it is consistent but costs no more than a submission.
func (s *Stream) DebugSnapshot() EngineSnapshot {
	return s.sess.DebugSnapshot()
}

// Diagnose reports every episode that has been running for at least a
// second. It is the on-demand form of the StallWatchdog background check.
func (s *Stream) Diagnose() []DebugFinding {
	return s.sess.Diagnose(engine.DiagnoseStall)
}

// WriteTrace writes the flight recorder's current contents — the most
// recent engine events across every worker and the control plane, merged
// into one causal timeline — as Chrome trace_event JSON. Load the output
// in Perfetto (ui.perfetto.dev) or chrome://tracing.
func (s *Stream) WriteTrace(w io.Writer) error {
	rec := s.sess.Recorder()
	return obs.WriteTrace(w, rec.Snapshot(), rec.Rings())
}

// CaptureTrace records engine activity for the given duration (cut short
// if the stream's run context ends) and writes the captured window as
// Chrome trace_event JSON.
func (s *Stream) CaptureTrace(dur time.Duration, w io.Writer) error {
	rec := s.sess.Recorder()
	start := time.Now().UnixNano()
	select {
	case <-time.After(dur):
	case <-s.runDone:
	}
	return obs.WriteTrace(w, rec.Since(start), rec.Rings())
}

// AdmissionDebug is the admission-control section of the debug snapshot.
type AdmissionDebug struct {
	InFlightCost float64            `json:"in_flight_cost"`
	DrainRate    float64            `json:"drain_rate"` // cost units/sec, moving average
	Admitted     int64              `json:"admitted"`
	Rejected     int64              `json:"rejected"`
	Tenants      []StreamTenantStat `json:"tenants,omitempty"`
}

// PolicyDebug is the policy-persistence section of the debug snapshot:
// whether the stream's learned policy has been warm-started (and its
// effective exploration rate), plus the attached store's cache counters.
type PolicyDebug struct {
	Warm    bool             `json:"warm"`
	Epsilon float64          `json:"epsilon"`
	Store   PolicyStoreStats `json:"store"`
}

// streamDebug is the JSON document served by /debug/roulette/snapshot.
type streamDebug struct {
	Engine    EngineSnapshot  `json:"engine"`
	Admission *AdmissionDebug `json:"admission,omitempty"`
	Policy    *PolicyDebug    `json:"policy,omitempty"`
	Findings  []DebugFinding  `json:"findings"`
}

// DebugHandler returns an http.Handler exposing the stream's live
// introspection surface:
//
//	/debug/roulette/snapshot   engine + admission state and current stall
//	                           findings, as JSON
//	/debug/roulette/trace      flight-recorder timeline as Chrome
//	                           trace_event JSON; ?dur=500ms captures a
//	                           fresh window instead of dumping the rings
//	/debug/pprof/...           the standard runtime profiles
//
// Mount it on an operator-only listener; the endpoints expose query tags
// and tenant names.
func (s *Stream) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/roulette/snapshot", func(w http.ResponseWriter, r *http.Request) {
		doc := streamDebug{Engine: s.DebugSnapshot(), Findings: s.Diagnose()}
		if doc.Findings == nil {
			doc.Findings = []DebugFinding{}
		}
		if s.adm != nil {
			inUse, adm, rej, tenants := s.AdmissionStats()
			doc.Admission = &AdmissionDebug{
				InFlightCost: inUse,
				DrainRate:    s.adm.DrainRate(),
				Admitted:     adm,
				Rejected:     rej,
				Tenants:      tenants,
			}
		}
		if s.warm != nil {
			doc.Policy = &PolicyDebug{
				Warm:    s.warm.learned.Warm(),
				Epsilon: s.warm.learned.Epsilon(),
				Store:   s.warm.store.Stats(),
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
	mux.HandleFunc("/debug/roulette/trace", func(w http.ResponseWriter, r *http.Request) {
		var err error
		w.Header().Set("Content-Type", "application/json")
		if d := r.URL.Query().Get("dur"); d != "" {
			dur, perr := time.ParseDuration(d)
			if perr != nil || dur < 0 || dur > time.Minute {
				http.Error(w, "dur must be a duration between 0 and 1m", http.StatusBadRequest)
				return
			}
			err = s.CaptureTrace(dur, w)
		} else {
			err = s.WriteTrace(w)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
