package bench

import (
	"math/rand"
	"time"

	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/sharing"
	"github.com/roulette-db/roulette/internal/tpcds"
	"github.com/roulette-db/roulette/internal/workload"
)

// SWORow is one exhaustive-MQO attempt.
type SWORow struct {
	Batch    int
	Elapsed  time.Duration
	TimedOut bool
	Plans    int64
}

// SWO demonstrates why the paper omits offline sharing from its plots
// (§6.1: the state-of-the-art shared-workload optimizer needs 137 s for an
// 11-query batch of 4-join queries): the exhaustive shared-plan search
// space is the product of the per-query order counts. Batch sizes grow
// until the optimizer hits the timeout, while RouLette's adaptive planning
// handles the same batches in milliseconds of decision time.
func (c *Config) SWO() ([]SWORow, error) {
	db := tpcds.Generate(c.Scale, c.Seed)
	p := workload.DefaultParams()
	p.Joins = 4
	p.Seed = c.Seed
	pool := workload.NewGenerator(p).Generate(64)
	rng := rand.New(rand.NewSource(c.Seed))

	timeout := 30 * time.Second
	sizes := []int{2, 4, 6, 8, 11, 14}
	if c.Quick {
		timeout = 2 * time.Second
		sizes = []int{2, 4, 8, 11}
	}

	c.printf("=== SWO anecdote: exhaustive shared-workload optimization ===\n")
	var rows []SWORow
	for _, n := range sizes {
		qs := workload.SampleBatch(rng, pool, n)
		b, err := query.Compile(qs)
		if err != nil {
			return nil, err
		}
		fact, _ := b.FindInstance("store_sales", 0)
		res := sharing.ExhaustiveMQO(b, db, fact, timeout)
		rows = append(rows, SWORow{Batch: n, Elapsed: res.Elapsed, TimedOut: res.TimedOut, Plans: res.PlansTried})
		status := "ok"
		if res.TimedOut {
			status = "TIMEOUT"
		}
		c.printf("batch=%2d  %10.3fs  plans-tried=%-12d %s\n", n, res.Elapsed.Seconds(), res.PlansTried, status)
		if res.TimedOut {
			break
		}
	}
	return rows, nil
}
