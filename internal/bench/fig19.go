package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/roulette-db/roulette/internal/job"
	"github.com/roulette-db/roulette/internal/qat"
	"github.com/roulette-db/roulette/internal/tpcds"
	"github.com/roulette-db/roulette/internal/workload"
)

// Fig19Row is one (batch, workers) speedup sample.
type Fig19Row struct {
	Batch   int
	Workers int
	Elapsed time.Duration
	Speedup float64
}

// Fig19 scales RouLette's worker pool from 1 to 12 on JOB batches
// (Fig. 19). Note: wall-clock speedup saturates at the host's core count
// (see DESIGN.md's substitution notes — the paper's machine has 12 cores
// per NUMA node); the harness prints GOMAXPROCS alongside.
func (c *Config) Fig19() ([]Fig19Row, error) {
	db := job.Generate(c.Seed)
	pool := job.Queries(job.NumQueries, c.Seed)
	rng := rand.New(rand.NewSource(c.Seed))
	batches := 5
	size := 64
	workerCounts := []int{1, 2, 4, 8, 12}
	if c.Quick {
		batches, size = 1, 16
		workerCounts = []int{1, 2, 4}
	}

	c.printf("=== Fig 19: worker scale-up (GOMAXPROCS=%d) ===\n", runtime.GOMAXPROCS(0))
	var rows []Fig19Row
	for bi := 1; bi <= batches; bi++ {
		qs := workload.SampleBatch(rng, pool, size)
		var base time.Duration
		for _, wk := range workerCounts {
			r, err := c.runSystem(SysRouLette, db, qs, wk)
			if err != nil {
				return nil, err
			}
			if wk == 1 {
				base = r.Elapsed
			}
			sp := 0.0
			if r.Elapsed > 0 {
				sp = base.Seconds() / r.Elapsed.Seconds()
			}
			rows = append(rows, Fig19Row{Batch: bi, Workers: wk, Elapsed: r.Elapsed, Speedup: sp})
			c.printf("batch %d  workers=%2d  %8.3fs  speedup %.2fx\n", bi, wk, r.Elapsed.Seconds(), sp)
		}
	}
	return rows, nil
}

// Fig20Row is one interference sample.
type Fig20Row struct {
	System  string
	Clients int
	QPS     float64
}

// Fig20 contrasts DBMS-V under growing client concurrency (inter-query
// interference) with RouLette processing the same queries as shared batches
// using all workers (Fig. 20).
func (c *Config) Fig20() ([]Fig20Row, error) {
	db := tpcds.Generate(c.Scale, c.Seed)
	p := workload.DefaultParams()
	p.Seed = c.Seed
	clientCounts := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	if c.Quick {
		clientCounts = []int{1, 4, 16, 64}
	}
	pool := workload.NewGenerator(p).Generate(clientCounts[len(clientCounts)-1] * 2)
	rng := rand.New(rand.NewSource(c.Seed))

	c.printf("=== Fig 20: interference (DBMS-V clients vs RouLette batches) ===\n")
	var rows []Fig20Row
	e := qat.New(db)
	for _, n := range clientCounts {
		// One query per client.
		qs := workload.SampleBatch(rng, pool, n)
		_, el, err := e.RunConcurrent(qs, n)
		if err != nil {
			return nil, err
		}
		qps := float64(n) / el.Seconds()
		rows = append(rows, Fig20Row{System: "DBMS-V", Clients: n, QPS: qps})
		c.printf("DBMS-V   clients=%4d  %8.2f q/s\n", n, qps)

		r, err := c.runSystem(SysRouLette, db, qs, runtime.GOMAXPROCS(0))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig20Row{System: "RouLette", Clients: n, QPS: r.Throughput()})
		c.printf("RouLette clients=%4d  %8.2f q/s\n", n, r.Throughput())
	}
	return rows, nil
}

var _ = fmt.Sprintf
