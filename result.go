package roulette

import "time"

// Group is one aggregate output row; Key is 0 for ungrouped aggregates.
// When the GROUP BY column is a string column, Label carries the decoded
// string and Key its dictionary code; a NULL group key has Key == NullValue
// (and an empty Label). OrderByKey sorts string-keyed groups by Label,
// NULL group first.
type Group struct {
	Key   int64
	Label string
	Value int64
}

// QueryResult is one query's outcome.
type QueryResult struct {
	Tag string
	// Count is the SPJ result cardinality (before aggregation).
	Count int64
	// Groups holds the host-side aggregate: one entry for plain COUNT/SUM,
	// one per key for grouped aggregates (sorted if OrderByKey was set).
	Groups []Group

	// Aborted marks a query that did not complete — the batch was cancelled
	// or timed out before its scans drained, or one of its episodes
	// faulted. Count and Groups then reflect only the work that finished
	// (lower bounds), and Err explains the cut.
	Aborted bool
	Err     error
}

// Value returns the ungrouped aggregate value (0 when grouped/empty).
func (r *QueryResult) Value() int64 {
	if len(r.Groups) == 1 {
		return r.Groups[0].Value
	}
	return 0
}

// ConvergencePoint is one episode's measured plan cost against the learned
// policy's estimate of the minimum achievable cost (Fig. 16's two series).
type ConvergencePoint struct {
	Episode   int64
	Measured  float64
	Estimated float64
}

// BatchResult summarizes a batch execution.
type BatchResult struct {
	Queries []QueryResult

	// Partial is set when at least one query was aborted (cancellation,
	// deadline, or an episode fault); the per-query Aborted flags say
	// which.
	Partial bool

	Elapsed  time.Duration
	Episodes int64
	// JoinTuples counts intermediate join output tuples — the paper's
	// implementation-independent plan-quality metric.
	JoinTuples int64

	Convergence []ConvergencePoint

	// Stats is the execution breakdown; every batch carries it.
	Stats *Stats

	trace []EpisodeTrace
}

// Throughput returns completed queries per second; aborted queries did not
// produce a result and do not count.
func (r *BatchResult) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	n := 0
	for i := range r.Queries {
		if !r.Queries[i].Aborted {
			n++
		}
	}
	return float64(n) / r.Elapsed.Seconds()
}

// Trace returns the batch's episode trace, oldest first: up to the last
// Options.TraceEpisodes episodes, as many of them as the flight recorder
// still held whole at the end of the run (nil when tracing was off). The
// returned slice is owned by the result; callers must not mutate it.
func (r *BatchResult) Trace() []EpisodeTrace { return r.trace }
