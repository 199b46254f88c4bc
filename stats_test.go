package roulette

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/roulette-db/roulette/internal/metrics"
)

// TestStatsAndTraceRoundTrip drives the full observability path through
// the public API: the always-on Stats plus TraceEpisodes on one batch.
func TestStatsAndTraceRoundTrip(t *testing.T) {
	e := fixture(t)
	qs := []*Query{
		NewQuery("wide").From("fact").From("dim").Join("fact", "fk", "dim", "k").CountStar(),
		NewQuery("narrow").From("fact").From("dim").Join("fact", "fk", "dim", "k").
			Between("fact", "v", 10, 60).CountStar(),
	}
	res, err := e.ExecuteBatch(qs, &Options{
		TraceEpisodes: 32,
		VectorSize:    64,
	})
	if err != nil {
		t.Fatal(err)
	}

	st := res.Stats
	if st == nil {
		t.Fatal("batch result carries no Stats")
	}
	if len(st.Queries) != 2 {
		t.Fatalf("per-query stats: %d entries", len(st.Queries))
	}
	for i, q := range st.Queries {
		if q.Tag != qs[i].q.Tag {
			t.Errorf("query %d: tag %q", i, q.Tag)
		}
		if q.Episodes == 0 || q.Elapsed <= 0 || !q.Completed {
			t.Errorf("query %q: %+v", q.Tag, q)
		}
		if q.Tuples != res.Queries[i].Count {
			t.Errorf("query %q: stats tuples %d != count %d", q.Tag, q.Tuples, res.Queries[i].Count)
		}
	}
	if st.Probes.Tuples != res.JoinTuples {
		t.Errorf("probe tuples %d != JoinTuples %d", st.Probes.Tuples, res.JoinTuples)
	}
	if len(st.Stems) == 0 {
		t.Fatal("no stem stats")
	}
	// One worker scans dim before fact (scan ranking), so by the time fact
	// is scanned no later probe can reach its tuples: the build rule
	// (DESIGN.md §10) leaves the fact STeM empty and builds all 25 dim rows.
	var probed bool
	for _, ss := range st.Stems {
		if ss.Table == "" || ss.EstBytes == 0 || ss.Entries != ss.Inserts {
			t.Errorf("stem stats %+v", ss)
		}
		if want := map[string]int64{"fact": 0, "dim": 25}[ss.Table]; ss.Entries != want {
			t.Errorf("stem %s: %d entries, want %d", ss.Table, ss.Entries, want)
		}
		if ss.Probes > 0 && ss.HitRate() > 0 {
			probed = true
		}
	}
	if !probed {
		t.Error("no STeM recorded probe traffic with matches")
	}
	if st.Policy.QStates == 0 || st.Policy.Exploits == 0 {
		t.Errorf("policy stats %+v", st.Policy)
	}
	if f := st.Sharing.Factor(); f <= 0 || f > 1 {
		t.Errorf("sharing factor %v (%+v)", f, st.Sharing)
	}
	for _, line := range []string{"queries:", "ops:", "sharing:"} {
		if !strings.Contains(st.Summary(), line) {
			t.Errorf("Summary missing %q:\n%s", line, st.Summary())
		}
	}

	trace := res.Trace()
	if len(trace) == 0 || len(trace) > 32 {
		t.Fatalf("trace holds %d records", len(trace))
	}
	var withActions bool
	for _, tr := range trace {
		if tr.Table == "" || tr.ActiveQueries <= 0 || tr.Input <= 0 {
			t.Errorf("malformed trace record %+v", tr)
		}
		if len(tr.JoinActions) > 0 {
			withActions = true
		}
	}
	if !withActions {
		t.Error("no trace record carries join actions")
	}

	var buf bytes.Buffer
	if err := res.WriteTraceJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var tr EpisodeTrace
		if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		lines++
	}
	if lines != len(trace) {
		t.Errorf("JSONL lines %d != trace len %d", lines, len(trace))
	}
}

// TestDefaultBatchCarriesStatsNotTrace pins the public contract: Stats is
// always attached, tracing stays opt-in.
func TestDefaultBatchCarriesStatsNotTrace(t *testing.T) {
	e := fixture(t)
	q := NewQuery("q").From("fact").From("dim").Join("fact", "fk", "dim", "k").CountStar()
	res, err := e.ExecuteBatch([]*Query{q}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil || res.Stats.Sharing.TotalOps == 0 {
		t.Errorf("default run carries no populated Stats: %+v", res.Stats)
	}
	if res.Trace() != nil {
		t.Error("default run attached a trace")
	}
}

// TestRegistryAgreesWithBatchStats pins that a batch's Stats and the
// process-wide registry are two views of one set of counters: what one
// batch adds to the registry equals the totals its Stats reports.
func TestRegistryAgreesWithBatchStats(t *testing.T) {
	e := fixture(t)
	qs := []*Query{
		NewQuery("a").From("fact").From("dim").Join("fact", "fk", "dim", "k").
			Between("dim", "g", 0, 1).CountStar(),
		NewQuery("b").From("fact").From("dim").Join("fact", "fk", "dim", "k").
			Between("fact", "v", 10, 60).CountStar(),
	}
	before := metrics.Default().Snapshot()
	res, err := e.ExecuteBatch(qs, &Options{VectorSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	after := metrics.Default().Snapshot()
	st := res.Stats
	var stemProbes, stemInserts int64
	for _, s := range st.Stems {
		stemProbes += s.Probes
		stemInserts += s.Inserts
	}
	for _, c := range []struct {
		name        string
		reg, report int64
	}{
		{"batches", after.Batches - before.Batches, 1},
		{"queries completed", after.QueriesComplete - before.QueriesComplete, int64(len(qs))},
		{"op invocations", after.TotalOps - before.TotalOps, st.Sharing.TotalOps},
		{"shared op invocations", after.SharedOps - before.SharedOps, st.Sharing.SharedOps},
		{"stem probes", after.StemProbes - before.StemProbes, stemProbes},
		{"stem inserts", after.StemInserts - before.StemInserts, st.Builds.Tuples},
		{"per-stem inserts", after.StemInserts - before.StemInserts, stemInserts},
		{"selection survivors", after.SelOut - before.SelOut, st.Filters.Tuples},
		{"routed tuples", after.Routed - before.Routed, st.Routers.Tuples},
		{"plan switches", after.PlanSwitches - before.PlanSwitches, st.Policy.PlanSwitches},
	} {
		if c.reg != c.report {
			t.Errorf("%s: registry grew by %d, Stats reports %d", c.name, c.reg, c.report)
		}
	}
	if st.Sharing.TotalOps == 0 || stemProbes == 0 {
		t.Errorf("batch counted no work: %+v, %d stem probes", st.Sharing, stemProbes)
	}
}

// TestThroughputExcludesAborted pins the Throughput fix: a partial result
// counts only completed queries.
func TestThroughputExcludesAborted(t *testing.T) {
	r := &BatchResult{
		Elapsed: 2 * time.Second,
		Queries: []QueryResult{
			{Tag: "done"},
			{Tag: "cut", Aborted: true},
			{Tag: "also-done"},
			{Tag: "also-cut", Aborted: true},
		},
		Partial: true,
	}
	if got := r.Throughput(); got != 1.0 {
		t.Errorf("Throughput = %v, want 1.0 (2 completed / 2s)", got)
	}
	if (&BatchResult{}).Throughput() != 0 {
		t.Error("zero-elapsed result should report 0")
	}
}

// TestMetricsHandler checks both exposition formats of the process-wide
// metrics endpoint after a batch has folded into it.
func TestMetricsHandler(t *testing.T) {
	e := fixture(t)
	q := NewQuery("q").From("fact").From("dim").Join("fact", "fk", "dim", "k").CountStar()
	if _, err := e.ExecuteBatch([]*Query{q}, nil); err != nil {
		t.Fatal(err)
	}

	h := MetricsHandler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prom content type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE roulette_batches_total counter",
		"# TYPE roulette_episodes_total counter",
		"roulette_op_invocations_total",
		`roulette_phase_seconds_total{phase="probe"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
	// Every non-comment line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if parts := strings.Fields(line); len(parts) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("json content type %q", ct)
	}
	var snap map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if v, ok := snap["batches"].(float64); !ok || v < 1 {
		t.Errorf("json snapshot batches = %v", snap["batches"])
	}
	if v, ok := snap["episodes"].(float64); !ok || v <= 0 {
		t.Errorf("json snapshot episodes = %v", snap["episodes"])
	}

	// Accept-header negotiation without the query parameter.
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/json")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("accept-negotiated content type %q", ct)
	}
}
