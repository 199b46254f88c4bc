// Observability: execution stats, episode tracing and metrics export. The
// example runs a TPC-DS-style dashboard batch with Options.TraceEpisodes
// set, prints the per-batch breakdown every result carries (operator
// classes, STeM state, policy behaviour, sharing factor), dumps the traced
// episodes as JSON Lines to a temporary file that it reads back and
// removes, and scrapes the process-wide /metrics endpoint once in both
// exposition formats.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"strings"

	roulette "github.com/roulette-db/roulette"
	"github.com/roulette-db/roulette/internal/tpcds"
	"github.com/roulette-db/roulette/internal/workload"
)

func main() {
	fmt.Println("generating TPC-DS substrate...")
	db := tpcds.Generate(0.1, 1)
	e := roulette.NewEngineOn(db)

	p := workload.DefaultParams()
	inner := workload.NewGenerator(p).Generate(32)
	queries := make([]*roulette.Query, len(inner))
	for i, q := range inner {
		pub := roulette.NewQuery(q.Tag)
		for _, r := range q.Rels {
			pub.From(r.Table)
		}
		for _, j := range q.Joins {
			pub.Join(j.LeftAlias, j.LeftCol, j.RightAlias, j.RightCol)
		}
		for _, f := range q.Filters {
			pub.Between(f.Alias, f.Col, f.Lo, f.Hi)
		}
		queries[i] = pub.CountStar()
	}

	// Every result carries a Stats breakdown; tracing is opt-in:
	// TraceEpisodes makes the engine's flight recorder keep each episode's
	// chosen operators for about the last N episodes.
	res, err := e.ExecuteBatch(queries, &roulette.Options{
		DiscardRows:   true,
		TraceEpisodes: 64,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%d queries in %v\n\n", len(res.Queries), res.Elapsed)
	fmt.Println("--- batch stats ---")
	fmt.Print(res.Stats.Summary())

	// Per-operator-class and per-STeM detail beyond the summary line.
	st := res.Stats
	fmt.Printf("\nprobe ops: %d invocations, %d join tuples\n",
		st.Probes.Invocations, st.Probes.Tuples)
	for _, ss := range st.Stems {
		fmt.Printf("stem %-16s %8d entries  %9d probes  hit-rate %.2f\n",
			ss.Table, ss.Entries, ss.Probes, ss.HitRate())
	}

	// Trace decodes the flight recorder's events back into one record per
	// episode, oldest first; WriteTraceJSONL emits them one JSON object per
	// line for offline analysis.
	fmt.Printf("\n--- last %d episodes (first 3 shown) ---\n", len(res.Trace()))
	for i, tr := range res.Trace() {
		if i == 3 {
			break
		}
		fmt.Printf("ep %4d  table=%-14s active=%2d  in=%4d join-in=%4d  joins=%v\n",
			tr.Episode, tr.Table, tr.ActiveQueries, tr.Input, tr.JoinInput, tr.JoinActions)
	}
	f, err := os.CreateTemp("", "roulette-trace-*.jsonl")
	if err != nil {
		log.Fatal(err)
	}
	if err := res.WriteTraceJSONL(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	// Read the file back as an offline tool would, then remove it.
	data, err := os.ReadFile(f.Name())
	if rmErr := os.Remove(f.Name()); err == nil {
		err = rmErr
	}
	if err != nil {
		log.Fatal(err)
	}
	episodes, joined := 0, 0
	for dec := json.NewDecoder(bytes.NewReader(data)); dec.More(); episodes++ {
		var ep struct {
			JoinActions []int32 `json:"join_actions"`
		}
		if err := dec.Decode(&ep); err != nil {
			log.Fatal(err)
		}
		if len(ep.JoinActions) > 0 {
			joined++
		}
	}
	fmt.Printf("trace file read back: %d episodes, %d with join_actions\n", episodes, joined)

	// MetricsHandler serves process-wide counters accumulated across every
	// batch; in a real service mount it on your HTTP server:
	//
	//	http.Handle("/metrics", roulette.MetricsHandler())
	//
	// Here we scrape it in-process instead of binding a port.
	h := roulette.MetricsHandler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	fmt.Println("\n--- /metrics (Prometheus text, roulette_* families) ---")
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "roulette_batches_total") ||
			strings.HasPrefix(line, "roulette_episodes_total") ||
			strings.HasPrefix(line, "roulette_shared_op") ||
			strings.HasPrefix(line, "roulette_phase_seconds_total") {
			fmt.Println(line)
		}
	}
}
