package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock returns a deterministic, strictly increasing nanosecond stamp.
func fakeClock() func() int64 {
	var t int64
	return func() int64 { return atomic.AddInt64(&t, 1000) }
}

func TestRecordDrainOrder(t *testing.T) {
	r := NewRecorder(1, 16)
	r.SetNow(fakeClock())
	for i := 0; i < 10; i++ {
		r.Record(0, KEpisodeStart, int64(i), 2, 3, 4)
	}
	evs := r.Snapshot()
	if len(evs) != 10 {
		t.Fatalf("got %d events, want 10", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: seq %d, want %d", i, e.Seq, i+1)
		}
		if e.A != int64(i) || e.B != 2 || e.C != 3 || e.D != 4 {
			t.Errorf("event %d: args (%d,%d,%d,%d)", i, e.A, e.B, e.C, e.D)
		}
		if e.Kind != KEpisodeStart {
			t.Errorf("event %d: kind %v", i, e.Kind)
		}
		if i > 0 && e.TS <= evs[i-1].TS {
			t.Errorf("event %d: ts not increasing", i)
		}
	}
}

func TestOverwriteKeepsNewestWindow(t *testing.T) {
	r := NewRecorder(1, 8)
	r.SetNow(fakeClock())
	for i := 0; i < 100; i++ {
		r.Record(0, KGCQuantum, int64(i), 0, 0, 0)
	}
	evs := r.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("got %d events, want 8 (ring capacity)", len(evs))
	}
	for i, e := range evs {
		if want := int64(92 + i); e.A != want {
			t.Errorf("event %d: a=%d, want %d", i, e.A, want)
		}
	}
}

func TestMergedTimelineGloballyOrdered(t *testing.T) {
	r := NewRecorder(4, 32)
	r.SetNow(fakeClock())
	// Interleave writers across rings; the shared fake clock gives every
	// event a unique global stamp.
	for i := 0; i < 100; i++ {
		r.Record(i%4, KEpisodeStart, int64(i), 0, 0, 0)
	}
	evs := r.Snapshot()
	if len(evs) != 100 {
		t.Fatalf("got %d events, want 100", len(evs))
	}
	lastSeq := map[int32]uint64{}
	for i, e := range evs {
		if i > 0 && e.TS < evs[i-1].TS {
			t.Fatalf("event %d: global TS order violated", i)
		}
		if e.Seq <= lastSeq[e.Ring] {
			t.Fatalf("event %d: ring %d seq %d not monotonic", i, e.Ring, e.Seq)
		}
		lastSeq[e.Ring] = e.Seq
	}
}

func TestSince(t *testing.T) {
	r := NewRecorder(1, 32)
	clk := fakeClock()
	r.SetNow(clk)
	for i := 0; i < 5; i++ {
		r.Record(0, KSubmit, int64(i), 0, 0, 0)
	}
	cut := clk() // 6000; events so far stamped 1000..5000
	for i := 5; i < 10; i++ {
		r.Record(0, KSubmit, int64(i), 0, 0, 0)
	}
	evs := r.Since(cut)
	if len(evs) != 5 {
		t.Fatalf("got %d events since cut, want 5", len(evs))
	}
	if evs[0].A != 5 {
		t.Fatalf("first event a=%d, want 5", evs[0].A)
	}
}

func TestNilRecorder(t *testing.T) {
	var nilR *Recorder
	nilR.Record(0, KSubmit, 0, 0, 0, 0) // must not panic
	if nilR.Rings() != 0 || nilR.Snapshot() != nil || nilR.Episodes(8) != nil {
		t.Fatal("nil recorder should be inert")
	}
}

func TestConcurrentRecordDrain(t *testing.T) {
	r := NewRecorder(3, 64)
	r.SetVClock(fakeClock())
	const perWriter = 2000
	var writers sync.WaitGroup
	stop := make(chan struct{})
	drained := make(chan struct{})
	// One drainer hammering Snapshot while writers record.
	go func() {
		defer close(drained)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range r.Snapshot() {
				if e.Kind != KEpisodeStart && e.Kind != KEpisodeEnd {
					t.Errorf("torn event surfaced: kind %v", e.Kind)
					return
				}
			}
		}
	}()
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < perWriter; i++ {
				k := KEpisodeStart
				if i%2 == 1 {
					k = KEpisodeEnd
				}
				r.Record(w, k, int64(i), int64(w), 0, 0)
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	<-drained
	// Final snapshot: each ring holds its newest 64 events in seq order.
	evs := r.Snapshot()
	last := map[int32]uint64{}
	for _, e := range evs {
		if e.Seq <= last[e.Ring] {
			t.Fatalf("ring %d: seq %d out of order", e.Ring, e.Seq)
		}
		last[e.Ring] = e.Seq
	}
}

func TestRecordZeroAlloc(t *testing.T) {
	r := NewRecorder(2, 256)
	r.SetVClock(func() int64 { return 42 })
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(0, KEpisodeStart, 1, 2, 3, 4)
		r.Record(1, KEpisodeEnd, 5, 6, 7, 8)
	})
	if allocs != 0 {
		t.Fatalf("Record allocated %.1f times per op, want 0", allocs)
	}
}

func TestTraceGolden(t *testing.T) {
	r := NewRecorder(2, 8)
	r.SetNow(fakeClock())
	r.SetVClock(func() int64 { return 7 })
	r.Record(0, KEpisodeStart, 3, 12, 0, 2)
	r.Record(0, KAction, 1, 4, 128, 96)
	r.Record(0, KEpisodeEnd, 3, 12, 1000, 99)
	r.Record(1, KSubmit, 5, 0, 77, 0)
	r.Record(1, KReject, -1, 0, 77, 0)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, r.Snapshot(), r.Rings()); err != nil {
		t.Fatal(err)
	}
	want := `{"displayTimeUnit":"ms","traceEvents":[` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"worker 0"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"control"}},` +
		`{"name":"episode_start","ph":"i","ts":1,"pid":1,"tid":0,"s":"t","args":{"active":2,"active_w0":0,"inst":3,"slot":12,"vclock":7}},` +
		`{"name":"action","ph":"i","ts":2,"pid":1,"tid":0,"s":"t","args":{"n_in":128,"n_out":96,"op":4,"phase":1,"vclock":7}},` +
		`{"name":"episode","ph":"X","ts":2,"dur":1,"pid":1,"tid":0,"args":{"dur_ns":1000,"inst":3,"plan_sig":99,"slot":12,"vclock":7}},` +
		`{"name":"submit","ph":"i","ts":4,"pid":1,"tid":1,"s":"t","args":{"qid":5,"tenant":77,"vclock":7}},` +
		`{"name":"reject","ph":"i","ts":5,"pid":1,"tid":1,"s":"t","args":{"qid":-1,"tenant":77,"vclock":7}}` +
		`]}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("golden mismatch:\ngot:  %s\nwant: %s", got, want)
	}
}

func TestTraceValidTraceEventJSON(t *testing.T) {
	r := NewRecorder(3, 32)
	r.SetNow(fakeClock())
	for i := 0; i < 20; i++ {
		r.Record(i%3, Kind(1+i%len(kindNames)), int64(i), 0, 500, 0)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, r.Snapshot(), r.Rings()); err != nil {
		t.Fatal(err)
	}
	var f struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("no trace events emitted")
	}
	for i, te := range f.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := te[key]; !ok {
				t.Fatalf("event %d missing required key %q: %v", i, key, te)
			}
		}
		if ph := te["ph"].(string); ph == "X" {
			if _, ok := te["dur"]; !ok {
				t.Fatalf("complete event %d missing dur", i)
			}
		}
	}
}

// TestKindTablesCoverEveryKind keeps the name and argument tables in step
// with the Kind constants: a kind added without a row would export as
// "unknown" with no arguments.
func TestKindTablesCoverEveryKind(t *testing.T) {
	if len(kindNames) != len(kindArgs) || len(kindNames) != int(KEpisodeWork)+1 {
		t.Fatalf("kindNames has %d rows, kindArgs %d, last kind is %d", len(kindNames), len(kindArgs), KEpisodeWork)
	}
	for k := KEpisodeStart; k <= KEpisodeWork; k++ {
		if kindNames[k] == "" || kindArgs[k][0] == "" {
			t.Errorf("kind %d: name %q, first argument %q", k, kindNames[k], kindArgs[k][0])
		}
	}
}

// recordEpisode writes one traced episode into ring ri the way the engine
// does: start, one action per log entry, the work totals, end.
func recordEpisode(r *Recorder, ri int, inst, slot int64, sel, join []int64, fault int64) {
	r.Record(ri, KEpisodeStart, inst, slot, 0b111, 3)
	for _, op := range sel {
		r.Record(ri, KAction, 0, op, 100, 50)
	}
	for _, op := range join {
		r.Record(ri, KAction, 1, op, 50, 70)
	}
	r.Record(ri, KEpisodeWork, 100, 50, int64(math.Float64bits(12.5)), fault)
	r.Record(ri, KEpisodeEnd, inst, slot, 2000+slot, 99)
}

func TestEpisodesDecodeInterleavedRings(t *testing.T) {
	r := NewRecorder(3, 64) // two workers and a control ring
	r.SetNow(fakeClock())
	// Worker 1 finishes slot 1 before worker 0 finishes slot 0, with
	// control-plane traffic in between: the decoder keeps rings apart and
	// orders the result by episode number.
	r.Record(0, KEpisodeStart, 2, 0, 0b1, 1)
	r.Record(2, KSubmit, 4, 0, 0, 0)
	recordEpisode(r, 1, 5, 1, []int64{7}, []int64{3, 4}, 0)
	r.Record(0, KAction, 1, 9, 10, 20)
	r.Record(2, KRetire, 4, 1, 0, 0)
	r.Record(0, KEpisodeWork, 10, 10, int64(math.Float64bits(1.5)), 2)
	r.Record(0, KEpisodeEnd, 2, 0, 500, 11)
	recordEpisode(r, 1, 5, 2, nil, nil, 0)

	got := r.Episodes(10)
	want := []EpisodeTrace{
		{Episode: 0, Inst: 2, ActiveQueries: 1, Input: 10, JoinInput: 10, Cost: 1.5,
			Duration: 500, JoinActions: []int32{9}, FaultKind: 2},
		{Episode: 1, Inst: 5, ActiveQueries: 3, Input: 100, JoinInput: 50, Cost: 12.5,
			Duration: 2001, SelActions: []int32{7}, JoinActions: []int32{3, 4}},
		{Episode: 2, Inst: 5, ActiveQueries: 3, Input: 100, JoinInput: 50, Cost: 12.5,
			Duration: 2002},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded\n %+v\nwant\n %+v", got, want)
	}
}

func TestEpisodesWrappedRingYieldsOnlyCompleteEpisodes(t *testing.T) {
	r := NewRecorder(1, 16)
	r.SetNow(fakeClock())
	// Five events per episode into 16 slots: after 7 episodes the ring holds
	// the tail of slot 3 (its start overwritten) and slots 4..6 whole.
	for slot := int64(0); slot < 7; slot++ {
		recordEpisode(r, 0, 1, slot, []int64{slot}, []int64{slot}, 0)
	}
	got := r.Episodes(100)
	if len(got) != 3 {
		t.Fatalf("decoded %d episodes, want the 3 the ring holds whole: %+v", len(got), got)
	}
	for i, ep := range got {
		slot := int64(4 + i)
		if ep.Episode != slot || ep.Input != 100 || ep.Duration != time.Duration(2000+slot) ||
			!reflect.DeepEqual(ep.SelActions, []int32{int32(slot)}) ||
			!reflect.DeepEqual(ep.JoinActions, []int32{int32(slot)}) {
			t.Errorf("episode %d decoded as %+v", slot, ep)
		}
	}
	// An episode still open when the rings are read is not returned either.
	r.Record(0, KEpisodeStart, 1, 7, 0, 1)
	r.Record(0, KAction, 1, 1, 1, 1)
	if got := r.Episodes(100); len(got) != 2 || got[1].Episode != 6 {
		t.Fatalf("open episode surfaced or complete ones lost: %+v", got)
	}
}

func TestEpisodesLastN(t *testing.T) {
	r := NewRecorder(2, 256)
	r.SetNow(fakeClock())
	for slot := int64(0); slot < 20; slot++ {
		recordEpisode(r, int(slot%2), 0, slot, nil, []int64{1}, 0)
	}
	got := r.Episodes(6)
	if len(got) != 6 {
		t.Fatalf("decoded %d episodes, want the last 6", len(got))
	}
	for i, ep := range got {
		if want := int64(14 + i); ep.Episode != want {
			t.Errorf("record %d is episode %d, want %d (oldest first)", i, ep.Episode, want)
		}
	}
	if r.Episodes(0) != nil {
		t.Error("Episodes(0) returned records")
	}
}
