package bench

import (
	"github.com/roulette-db/roulette/internal/chains"
	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
)

// Fig16Series is the convergence trace of one chain workload: bucketed
// averages of measured episode cost and the policy's estimated minimum.
type Fig16Series struct {
	Chains    int
	Relations int
	Episodes  []int64
	Measured  []float64
	Estimated []float64
	// GreedyRatio is Fig. 16i's learned/greedy intermediate-tuple ratio.
	GreedyRatio float64
}

// fig16Configs are the (C, R) panels of Figs. 16a–16h.
var fig16Configs = [][2]int{
	{4, 9}, {4, 17}, {4, 33}, {8, 9}, {8, 17}, {8, 33}, {16, 17}, {16, 33},
}

// Fig16 runs the learning-rate experiment: for each chain-schema workload a
// 64-query batch is processed with convergence tracking; the measured
// episode cost falls and the policy's estimated minimum rises until they
// meet (Figs. 16a–16h), and the learned/greedy intermediate-tuple ratio is
// reported per workload (Fig. 16i).
func (c *Config) Fig16() ([]Fig16Series, error) {
	configs := fig16Configs
	baseRows, factRows, batch := 600, 40000, 64
	if c.Quick {
		configs = [][2]int{{4, 9}, {8, 17}}
		baseRows, factRows, batch = 200, 6000, 16
	}

	c.printf("=== Fig 16: policy convergence on chain schemas ===\n")
	var out []Fig16Series
	for _, cfg := range configs {
		w, err := chains.Build(cfg[0], cfg[1], baseRows, factRows, c.Seed)
		if err != nil {
			return nil, err
		}
		qs := w.Queries(batch, c.Seed+1)

		series, err := c.fig16One(w, qs, cfg[0], cfg[1])
		if err != nil {
			return nil, err
		}
		out = append(out, *series)
	}
	return out, nil
}

func (c *Config) fig16One(w *chains.Workload, qs []*query.Query, cc, rr int) (*Fig16Series, error) {
	b, err := query.Compile(qs)
	if err != nil {
		return nil, err
	}
	opt := exec.DefaultOptions()
	opt.CollectRows = false
	opt.VectorSize = 64
	qc := qlearn.DefaultConfig()
	qc.Seed = c.Seed
	s, err := engine.NewSession(b, w.DB, engine.Config{
		Exec: opt, Policy: qlearn.New(qc), TrackConvergence: true,
	})
	if err != nil {
		return nil, err
	}
	r, err := s.Run()
	if err != nil {
		return nil, err
	}

	series := &Fig16Series{Chains: cc, Relations: rr}
	// Bucket episodes into ~30 points.
	n := len(r.Convergence)
	bucket := n / 30
	if bucket < 1 {
		bucket = 1
	}
	for i := 0; i < n; i += bucket {
		end := i + bucket
		if end > n {
			end = n
		}
		var m, e float64
		for _, p := range r.Convergence[i:end] {
			m += p.Measured
			e += p.Estimated
		}
		k := float64(end - i)
		series.Episodes = append(series.Episodes, int64(i))
		series.Measured = append(series.Measured, m/k)
		series.Estimated = append(series.Estimated, e/k)
	}

	// Fig. 16i: learned vs greedy intermediate tuples on the same workload.
	greedy, err := joinTuples(w.DB, qs, mkGreedy, 0, c.Seed)
	if err != nil {
		return nil, err
	}
	if greedy > 0 {
		series.GreedyRatio = float64(r.JoinTuples) / float64(greedy)
	}

	c.printf("C=%d,R=%d: episodes=%d learned-tuples=%d ratio-vs-greedy=%.2f\n",
		cc, rr, r.Episodes, r.JoinTuples, series.GreedyRatio)
	last := len(series.Measured) - 1
	if last >= 0 {
		c.printf("  first bucket: measured=%.3g estimated=%.3g | last bucket: measured=%.3g estimated=%.3g\n",
			series.Measured[0], series.Estimated[0], series.Measured[last], series.Estimated[last])
	}
	return series, nil
}
