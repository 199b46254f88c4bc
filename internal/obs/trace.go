package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// traceEvent is one entry in the Chrome trace_event JSON format
// (loadable in Perfetto / chrome://tracing). Timestamps are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// RingName names ring ri for trace export: "control" for the last ring
// (the engine's convention: workers rings then one control ring),
// "worker N" otherwise.
func RingName(ri, rings int) string {
	if ri == rings-1 {
		return "control"
	}
	return fmt.Sprintf("worker %d", ri)
}

// ToTraceEvents converts a merged timeline into Chrome trace_event
// records. Episode-end events become complete ("X") spans reconstructed
// from their duration argument; every other kind becomes a thread-scoped
// instant ("i"). Arguments carry the names kindArgs gives them. One metadata
// record per ring names its track. rings is the recorder's ring count (for
// track naming); pass 0 to derive it from the events.
func ToTraceEvents(evs []Event, rings int) []traceEvent {
	if rings == 0 {
		for _, e := range evs {
			if int(e.Ring)+1 > rings {
				rings = int(e.Ring) + 1
			}
		}
	}
	out := make([]traceEvent, 0, len(evs)+rings)
	for ri := 0; ri < rings; ri++ {
		out = append(out, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: ri,
			Args: map[string]any{"name": RingName(ri, rings)},
		})
	}
	for _, e := range evs {
		te := traceEvent{
			Name: e.Kind.String(),
			Ph:   "i",
			S:    "t",
			TS:   float64(e.TS) / 1e3,
			Pid:  1,
			Tid:  int(e.Ring),
			Args: map[string]any{"vclock": e.VC},
		}
		if e.Kind == KEpisodeEnd {
			// Reconstruct the span: TS is the end stamp, C the duration.
			te.Ph, te.S = "X", ""
			te.TS = float64(e.TS-e.C) / 1e3
			te.Dur = float64(e.C) / 1e3
		}
		if int(e.Kind) < len(kindArgs) {
			for i, v := range [4]int64{e.A, e.B, e.C, e.D} {
				if name := kindArgs[e.Kind][i]; name != "" {
					te.Args[name] = v
				}
			}
		}
		out = append(out, te)
	}
	return out
}

// WriteTrace renders a merged timeline as Chrome trace_event JSON.
// rings is the recorder ring count for track naming (0 = derive).
func WriteTrace(w io.Writer, evs []Event, rings int) error {
	f := traceFile{DisplayTimeUnit: "ms", TraceEvents: ToTraceEvents(evs, rings)}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}
