package bench

import (
	"math/rand"

	"github.com/roulette-db/roulette/internal/storage"

	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/tpcds"
	"github.com/roulette-db/roulette/internal/workload"
)

// Point is one (x, system, throughput) sample of a sensitivity sweep.
type Point struct {
	X      string
	System System
	QPS    float64
}

// fig11Systems are the five systems of the Fig. 11 sweeps.
var fig11Systems = []System{SysMonet, SysDBMSV, SysRouLette, SysStitchShare, SysMatchShare}

// fig11Sweep runs one sensitivity configuration across all systems.
func (c *Config) fig11Sweep(label string, db *storage.Database, qs []*query.Query, out *[]Point) error {
	for _, sys := range fig11Systems {
		r, err := c.runSystem(sys, db, qs, 0)
		if err != nil {
			return err
		}
		*out = append(*out, Point{X: label, System: sys, QPS: r.Throughput()})
		c.printf("%-18s %-14s %8.2f q/s\n", label, sys, r.Throughput())
	}
	return nil
}

// Fig11a: throughput vs batch size (Fig. 11a): batches of 1..max queries
// sampled from a pool, default parameters otherwise (10% selectivity, 4
// joins, snowflake-store).
func (c *Config) Fig11a() ([]Point, error) {
	db := tpcds.Generate(c.Scale, c.Seed)
	p := workload.DefaultParams()
	p.Seed = c.Seed
	poolSize := 4096
	sizes := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	if c.Quick {
		poolSize = 256
		sizes = []int{1, 4, 16, 64, 256}
	}
	pool := workload.NewGenerator(p).Generate(poolSize)
	rng := rand.New(rand.NewSource(c.Seed))

	c.printf("=== Fig 11a: throughput vs batch size ===\n")
	var out []Point
	for _, n := range sizes {
		qs := workload.SampleBatch(rng, pool, n)
		if err := c.fig11Sweep(itoa(n), db, qs, &out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Fig11b: throughput vs query selectivity (Fig. 11b) at 512 queries.
func (c *Config) Fig11b() ([]Point, error) {
	db := tpcds.Generate(c.Scale, c.Seed)
	sels := []float64{0.0001, 0.001, 0.01, 0.1, 1.0}
	batch := 512
	if c.Quick {
		batch = 64
	}
	rng := rand.New(rand.NewSource(c.Seed))

	c.printf("=== Fig 11b: throughput vs selectivity ===\n")
	var out []Point
	for _, s := range sels {
		p := workload.DefaultParams()
		p.Selectivity = s
		p.Seed = c.Seed + int64(s*1e6)
		pool := workload.NewGenerator(p).Generate(batch * 2)
		qs := workload.SampleBatch(rng, pool, batch)
		if err := c.fig11Sweep(ftoa(s*100)+"%", db, qs, &out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Fig11c: throughput vs joins per query (Fig. 11c) at 512 queries.
func (c *Config) Fig11c() ([]Point, error) {
	db := tpcds.Generate(c.Scale, c.Seed)
	batch := 512
	if c.Quick {
		batch = 64
	}
	rng := rand.New(rand.NewSource(c.Seed))

	c.printf("=== Fig 11c: throughput vs joins per query ===\n")
	var out []Point
	for _, j := range []int{1, 2, 3, 4, 5, 6} {
		p := workload.DefaultParams()
		p.Joins = j
		p.Seed = c.Seed + int64(j)
		pool := workload.NewGenerator(p).Generate(batch * 2)
		qs := workload.SampleBatch(rng, pool, batch)
		if err := c.fig11Sweep(itoa(j)+" joins", db, qs, &out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Fig11d: throughput vs schema type (Fig. 11d) at 512 queries.
func (c *Config) Fig11d() ([]Point, error) {
	db := tpcds.Generate(c.Scale, c.Seed)
	batch := 512
	if c.Quick {
		batch = 64
	}
	rng := rand.New(rand.NewSource(c.Seed))

	c.printf("=== Fig 11d: throughput vs schema type ===\n")
	var out []Point
	for _, k := range []tpcds.SchemaKind{
		tpcds.Template, tpcds.SnowflakeStore, tpcds.SnowflakeAll,
		tpcds.SnowstormStore, tpcds.SnowstormAll,
	} {
		p := workload.DefaultParams()
		p.Kind = k
		p.Seed = c.Seed + int64(k)
		pool := workload.NewGenerator(p).Generate(batch * 2)
		qs := workload.SampleBatch(rng, pool, batch)
		if err := c.fig11Sweep(k.String(), db, qs, &out); err != nil {
			return nil, err
		}
	}
	return out, nil
}
