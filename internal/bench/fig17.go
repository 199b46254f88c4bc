package bench

import (
	"math/rand"
	"time"

	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/job"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
	"github.com/roulette-db/roulette/internal/tpcds"
	"github.com/roulette-db/roulette/internal/workload"
)

// AblationRow is one incremental-optimization measurement plus the §6.3
// time breakdown of that configuration.
type AblationRow struct {
	Name    string
	Elapsed time.Duration
	Filter  float64
	Build   float64
	Probe   float64
	Route   float64
}

// runAblation executes the batch with the given executor options and
// returns the timing row.
func runAblation(name string, db *storage.Database, qs []*query.Query, opt exec.Options, seed int64) (AblationRow, error) {
	b, err := query.Compile(qs)
	if err != nil {
		return AblationRow{}, err
	}
	opt.CollectRows = false
	qc := qlearn.DefaultConfig()
	qc.Seed = seed
	s, err := engine.NewSession(b, db, engine.Config{Exec: opt, Policy: qlearn.New(qc)})
	if err != nil {
		return AblationRow{}, err
	}
	r, err := s.Run()
	if err != nil {
		return AblationRow{}, err
	}
	f, bd, p, rt := s.Context().Stats.Breakdown()
	return AblationRow{Name: name, Elapsed: r.Elapsed, Filter: f, Build: bd, Probe: p, Route: rt}, nil
}

// Fig17 profiles a 64-query JOB batch with and without symmetric join
// pruning (Fig. 17: "Plain SHJ" vs "Pruned SHJ") and reports the time
// breakdown.
func (c *Config) Fig17() ([]AblationRow, error) {
	db := job.Generate(c.Seed)
	pool := job.Queries(job.NumQueries, c.Seed)
	rng := rand.New(rand.NewSource(c.Seed))
	size := 64
	if c.Quick {
		size = 16
	}
	qs := workload.SampleBatch(rng, pool, size)

	c.printf("=== Fig 17: JOB batch profile (pruning) ===\n")
	var rows []AblationRow
	plain := exec.DefaultOptions()
	plain.Pruning = false
	for _, cfg := range []struct {
		name string
		opt  exec.Options
	}{
		{"Plain-SHJ", plain},
		{"Pruned-SHJ", exec.DefaultOptions()},
	} {
		row, err := runAblation(cfg.name, db, qs, cfg.opt, c.Seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		c.printf("%-12s %10.3fs  filter=%4.1f%% build=%4.1f%% probe=%4.1f%% route=%4.1f%%\n",
			row.Name, row.Elapsed.Seconds(), row.Filter*100, row.Build*100, row.Probe*100, row.Route*100)
	}
	if len(rows) == 2 && rows[1].Elapsed > 0 {
		c.printf("pruning speedup: %.2fx\n", rows[0].Elapsed.Seconds()/rows[1].Elapsed.Seconds())
	}
	return rows, nil
}

// Fig18 profiles a 512-query generated batch with the router and grouped-
// filter optimizations applied incrementally (Fig. 18: Plain → Output
// routing → Grouped filter).
func (c *Config) Fig18() ([]AblationRow, error) {
	db := tpcds.Generate(c.Scale, c.Seed)
	size := 512
	if c.Quick {
		size = 96
	}
	p := workload.DefaultParams()
	p.Seed = c.Seed
	pool := workload.NewGenerator(p).Generate(size * 2)
	rng := rand.New(rand.NewSource(c.Seed))
	qs := workload.SampleBatch(rng, pool, size)

	plain := exec.DefaultOptions()
	plain.LocalityRouter = false
	plain.GroupedFilters = false
	withRouter := plain
	withRouter.LocalityRouter = true
	full := withRouter
	full.GroupedFilters = true

	c.printf("=== Fig 18: large batch profile (router, grouped filter) ===\n")
	var rows []AblationRow
	for _, cfg := range []struct {
		name string
		opt  exec.Options
	}{
		{"Plain", plain},
		{"Output-routing", withRouter},
		{"Grouped-filter", full},
	} {
		row, err := runAblation(cfg.name, db, qs, cfg.opt, c.Seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		c.printf("%-16s %10.3fs  filter=%4.1f%% build=%4.1f%% probe=%4.1f%% route=%4.1f%%\n",
			row.Name, row.Elapsed.Seconds(), row.Filter*100, row.Build*100, row.Probe*100, row.Route*100)
	}
	if len(rows) == 3 && rows[2].Elapsed > 0 {
		c.printf("router+grouped-filter speedup: %.2fx\n", rows[0].Elapsed.Seconds()/rows[2].Elapsed.Seconds())
	}
	return rows, nil
}
