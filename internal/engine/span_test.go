package engine

import (
	"testing"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
	"github.com/roulette-db/roulette/internal/tpcds"
	"github.com/roulette-db/roulette/internal/workload"
)

// spanCounter counts the shape of the query sets the executor's word loops
// run over. It decorates a policy and reads each episode's execution log:
//
//   - per probe, the bits of the node's query set nd.Q (LogEntry.QMain) and
//     the words it spans;
//   - per prune, the words its eligible set spans. A batch's prune op
//     becomes available only once the opposite scan has delivered, inserted
//     and finished for every query on it, so its eligible set is its edge's
//     query set.
//
// Each span is taken twice: over the query IDs (the shape numbering the
// executor runs on) and over the caller positions (the draw order the
// queries arrived in, which numbered them before).
type spanCounter struct {
	policy.Policy
	b        *query.Batch
	pruneOps map[int]int // selection-op ID -> edge ID, prune ops only

	probes, probeBits, probeSpan, probeDrawSpan int
	prunes, pruneSpan, pruneDrawSpan            int
}

// countSession runs b with a counter wrapped around pol.
func countSession(t *testing.T, b *query.Batch, db *storage.Database, opt exec.Options, pol policy.Policy) *spanCounter {
	c := &spanCounter{Policy: pol, b: b, pruneOps: map[int]int{}}
	s, err := NewSession(b, db, Config{Exec: opt, Workers: 1, Policy: c})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range s.Context().SelOpDescs() {
		if d.Prune {
			c.pruneOps[d.ID] = d.EdgeID
		}
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

// drawSpan returns the words q spans when its queries are numbered by
// caller position.
func (c *spanCounter) drawSpan(q bitset.Set) int {
	lo, hi := -1, -1
	q.ForEach(func(qid int) {
		w := c.b.Pos(qid) / 64
		if lo < 0 || w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	})
	if lo < 0 {
		return 0
	}
	return hi - lo + 1
}

func (c *spanCounter) Observe(log []policy.LogEntry) {
	for i := range log {
		e := &log[i]
		switch {
		case e.Phase == policy.JoinPhase:
			lo, hi := e.QMain.Span()
			c.probes++
			c.probeBits += e.QMain.Count()
			c.probeSpan += hi - lo
			c.probeDrawSpan += c.drawSpan(e.QMain)
		case e.Phase == policy.SelPhase:
			edge, ok := c.pruneOps[e.Op]
			if !ok {
				continue
			}
			elig := c.b.Edges[edge].Queries
			lo, hi := elig.Span()
			c.prunes++
			c.pruneSpan += hi - lo
			c.pruneDrawSpan += c.drawSpan(elig)
		}
	}
	c.Policy.Observe(log)
}

// TestShapeNumberingNarrowsPruneSpans runs a batch_scan-shaped batch — 2048
// one-join, 1e-4-selective SnowflakeStore queries, 32 query-set words — and
// pins what shape numbering buys: a prune's eligible queries span at most 8
// words on average, where draw order spreads them over nearly all 32.
func TestShapeNumberingNarrowsPruneSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("2048-query batch")
	}
	db := tpcds.Generate(1, 1)
	qs := workload.NewGenerator(workload.Params{
		Joins: 1, Selectivity: 1e-4, Kind: tpcds.SnowflakeStore, Seed: 1,
	}).Generate(2048)
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	opt := exec.DefaultOptions()
	opt.CollectRows = false
	c := countSession(t, b, db, opt, policy.NewGreedy())
	if c.prunes == 0 || c.probes == 0 {
		t.Fatalf("%d prunes, %d probes: the batch exercised nothing", c.prunes, c.probes)
	}
	mean := func(sum, n int) float64 { return float64(sum) / float64(n) }
	t.Logf("probes %d: nd.Q %.1f bits, %.2f words by shape, %.2f words in draw order",
		c.probes, mean(c.probeBits, c.probes), mean(c.probeSpan, c.probes), mean(c.probeDrawSpan, c.probes))
	t.Logf("prunes %d: eligible set %.2f words by shape, %.2f words in draw order",
		c.prunes, mean(c.pruneSpan, c.prunes), mean(c.pruneDrawSpan, c.prunes))
	if m := mean(c.pruneSpan, c.prunes); m > 8 {
		t.Errorf("mean prune span %.2f words, want <= 8", m)
	}
}
