package roulette

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/metrics"
	"github.com/roulette-db/roulette/internal/obs"
)

// Stats is the execution breakdown attached to a BatchResult when
// Options.CollectStats is set: per-query shares, per-operator-class work,
// per-relation STeM traffic, policy behaviour and the sharing factor.
type Stats = engine.BatchStats

// The parts of Stats, and StreamStemStat, one relation instance's STeM as
// Stream.StemStats samples it live.
type (
	OpClassStats   = engine.OpClassStats
	QueryStats     = engine.QueryStats
	StemStats      = engine.StemStats
	PolicyStats    = engine.PolicyStats
	SharingStats   = engine.SharingStats
	StreamStemStat = engine.StemStats
)

// EpisodeTrace is one traced episode (Options.TraceEpisodes).
type EpisodeTrace = obs.EpisodeTrace

// WriteTraceJSONL writes the batch's episode trace as JSON Lines, one
// episode per line, oldest first.
func (r *BatchResult) WriteTraceJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range r.trace {
		if err := enc.Encode(&r.trace[i]); err != nil {
			return err
		}
	}
	return nil
}

// MetricsHandler returns an http.Handler exposing process-wide engine
// metrics, accumulated across every batch run in this process. It serves
// the Prometheus text exposition format by default and JSON when the
// request has ?format=json or an Accept header preferring application/json.
//
//	http.Handle("/metrics", roulette.MetricsHandler())
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		reg := metrics.Default()
		format := req.URL.Query().Get("format")
		if format == "json" || (format == "" && strings.Contains(req.Header.Get("Accept"), "application/json")) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(reg.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WriteProm(w)
	})
}
