package obs

import (
	"math"
	"sort"
	"time"
)

// EpisodeTrace is one traced episode, decoded from the events a worker
// recorded between the episode's start and its end.
type EpisodeTrace struct {
	Episode int64 `json:"episode"`
	// Inst is the scanned relation instance; Table is its name, filled in by
	// the engine (the rings carry no strings).
	Inst  int    `json:"-"`
	Table string `json:"table"`
	// ActiveQueries is the size of the episode's active query set.
	ActiveQueries int           `json:"active_queries"`
	Input         int           `json:"input"`      // ingested tuples
	JoinInput     int           `json:"join_input"` // tuples entering the join phase
	Cost          float64       `json:"cost"`       // cost-model total over the episode log
	Duration      time.Duration `json:"duration_ns"`
	// SelActions are the chosen selection-operator IDs in application order;
	// JoinActions the probed join-edge IDs in execution order.
	SelActions  []int32 `json:"sel_actions,omitempty"`
	JoinActions []int32 `json:"join_actions,omitempty"`
	// FaultKind is KEpisodeWork's fault argument (0 for a completed episode);
	// Fault is its class name ("panic" or "insert"), filled in by the
	// engine.
	FaultKind int    `json:"-"`
	Fault     string `json:"fault,omitempty"`
}

// Episodes decodes the rings back into the last n episodes, oldest first
// (by episode number, the order the scheduler handed them out). An episode is
// the gapless run of events one ring holds from a KEpisodeStart to the next
// KEpisodeEnd; one whose start was overwritten, or that a torn slot split, is
// left out, so every record returned is complete. Nil-safe.
func (r *Recorder) Episodes(n int) []EpisodeTrace {
	if r == nil || n <= 0 {
		return nil
	}
	var out []EpisodeTrace
	var evs []Event
	for ri := range r.rings {
		evs = r.drainRing(ri, evs[:0])
		var cur EpisodeTrace
		var open bool
		var prev uint64
		for _, e := range evs {
			if e.Seq != prev+1 {
				open = false // a gap: part of the open episode is gone
			}
			prev = e.Seq
			if e.Kind == KEpisodeStart {
				cur = EpisodeTrace{Inst: int(e.A), Episode: e.B, ActiveQueries: int(e.D)}
				open = true
			}
			if !open {
				continue
			}
			switch e.Kind {
			case KAction:
				if e.A == 0 {
					cur.SelActions = append(cur.SelActions, int32(e.B))
				} else {
					cur.JoinActions = append(cur.JoinActions, int32(e.B))
				}
			case KEpisodeWork:
				cur.Input, cur.JoinInput = int(e.A), int(e.B)
				cur.Cost = math.Float64frombits(uint64(e.C))
				cur.FaultKind = int(e.D)
			case KEpisodeEnd:
				cur.Duration = time.Duration(e.C)
				out = append(out, cur)
				open = false
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Episode < out[j].Episode })
	if len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}
