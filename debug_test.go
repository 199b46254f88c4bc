package roulette

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/stem"
)

// TestStreamDebugSurface drives the live introspection endpoints over a
// real stream: the snapshot must reflect submitted work and admission
// state, the trace endpoint must return valid Chrome trace_event JSON,
// and pprof must be mounted.
func TestStreamDebugSurface(t *testing.T) {
	e := streamFixture(t, 4000)
	qs := streamWorkload()

	// Size the budget off the real estimate so exactly one query fits.
	probe, err := e.OpenStream(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	est := probe.estimateCost(&qs[0].q)
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}

	// The first query's first episode parks until the second submission is
	// back, so the first query cannot retire and release its budget before
	// that submission is judged.
	var armed atomic.Bool
	parked := make(chan struct{})
	release := make(chan struct{})
	opt := &StreamOptions{
		Options:   Options{Seed: 5, TraceEpisodes: 128},
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
	tk, err := st.Submit(qs[0])
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-parked:
	case <-time.After(30 * time.Second):
		t.Fatal("the first query's first episode never started")
	}
	_, err = st.Submit(qs[1])
	close(release)
	// The budget is absurdly small, so a second submission must reject —
	// and the rejection must land on the flight recorder.
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("second submit: err = %v, want ErrOverloaded", err)
	}

	srv := httptest.NewServer(st.DebugHandler())
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/debug/roulette/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("snapshot: HTTP %d: %s", res.StatusCode, body)
	}
	var snap struct {
		Engine    EngineSnapshot  `json:"engine"`
		Admission *AdmissionDebug `json:"admission"`
		Findings  []DebugFinding  `json:"findings"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v\n%s", err, body)
	}
	if !snap.Engine.Streaming || len(snap.Engine.Insts) == 0 {
		t.Errorf("snapshot engine section: %+v", snap.Engine)
	}
	if snap.Admission == nil || snap.Admission.Rejected == 0 {
		t.Errorf("snapshot admission section missing the rejection: %+v", snap.Admission)
	}
	if snap.Findings == nil {
		t.Error("snapshot findings section absent (want at least [])")
	}

	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	res, err = srv.Client().Get(srv.URL + "/debug/roulette/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("trace: HTTP %d", res.StatusCode)
	}
	var tf struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	rejected := false
	for _, ev := range tf.TraceEvents {
		n, _ := ev["name"].(string)
		names[n] = true
		if args, _ := ev["args"].(map[string]interface{}); n == "reject" && args["qid"] == -1.0 {
			// The submission never received a query id.
			rejected = true
		}
	}
	// TraceEpisodes puts each episode's chosen operators on the same spine.
	for _, want := range []string{"episode", "submit", "reject", "action", "episode_work"} {
		if !names[want] {
			t.Errorf("trace has no %q events; saw %v", want, names)
		}
	}
	if !rejected {
		t.Error("trace has no reject event with qid -1")
	}

	// A bounded capture window also works and is valid JSON.
	res, err = srv.Client().Get(srv.URL + "/debug/roulette/trace?dur=10ms")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(res.Body)
	res.Body.Close()
	if err := json.Unmarshal(body, &tf); err != nil {
		t.Fatalf("captured trace is not valid JSON: %v", err)
	}

	res, err = srv.Client().Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Errorf("pprof: HTTP %d", res.StatusCode)
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamDiagnoseQuiet asserts a healthy idle stream produces no
// critical findings and that the stall watchdog can be enabled through the
// public options without disturbing results.
func TestStreamDiagnoseQuiet(t *testing.T) {
	e := streamFixture(t, 2000)
	st, err := e.OpenStream(context.Background(), &StreamOptions{
		Options:       Options{Seed: 6},
		StallWatchdog: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tk, err := st.Submit(streamWorkload()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(15 * time.Millisecond) // let the watchdog tick while idle
	for _, f := range st.Diagnose() {
		if f.Severity == "critical" {
			t.Errorf("healthy stream diagnosed critical: %+v", f)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
