package bench

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/job"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
	"github.com/roulette-db/roulette/internal/workload"
)

// Fig12 runs five 64-query JOB batches across RouLette, Stitch&Share,
// DBMS-V and MonetDB (Fig. 12). Match&Share is excluded, as in the paper
// (its optimizer assumes uniform data).
func (c *Config) Fig12() ([]Point, error) {
	db := job.Generate(c.Seed)
	pool := job.Queries(job.NumQueries, c.Seed)
	rng := rand.New(rand.NewSource(c.Seed))
	batches := 5
	size := 64
	if c.Quick {
		batches, size = 2, 16
	}

	c.printf("=== Fig 12: JOB 64-query batches ===\n")
	var out []Point
	for bi := 1; bi <= batches; bi++ {
		qs := workload.SampleBatch(rng, pool, size)
		for _, sys := range []System{SysRouLette, SysStitchShare, SysDBMSV, SysMonet} {
			r, err := c.runSystem(sys, db, qs, 0)
			if err != nil {
				return nil, err
			}
			out = append(out, Point{X: fmt.Sprintf("batch-%d", bi), System: sys, QPS: r.Throughput()})
			c.printf("batch %d  %-14s %8.2f q/s\n", bi, sys, r.Throughput())
		}
	}
	return out, nil
}

// Fig13Row is one (batch, policy) cost sample: intermediate join tuples,
// the implementation-independent plan-quality metric of §6.2.
type Fig13Row struct {
	BatchID    int
	BatchSize  int
	Policy     string
	JoinTuples int64
}

// Fig13 compares planning policies on JOB batches of growing size:
// RouLette's learned policy, the greedy selectivity policy (CACQ/CJOIN),
// Stitch&Share-Sim (plans chosen per query by a solo-learned policy, then
// prefix-shared), and RouLette QaaT (queries executed one at a time).
func (c *Config) Fig13() ([]Fig13Row, error) {
	db := job.Generate(c.Seed)
	pool := job.Queries(job.NumQueries, c.Seed)
	rng := rand.New(rand.NewSource(c.Seed))

	sizes := []int{1, 2, 4, 8, 16, 32, 64, 113}
	perSize := 5
	if c.Quick {
		sizes = []int{1, 4, 16}
		perSize = 2
	}

	c.printf("=== Fig 13: intermediate join tuples by policy ===\n")
	var rows []Fig13Row
	batchID := 0
	sums := map[string]int64{}
	for _, size := range sizes {
		for rep := 0; rep < perSize; rep++ {
			batchID++
			qs := workload.SampleBatch(rng, pool, size)

			learned, err := joinTuplesVec(db, qs, nil, 0, c.Seed, fig13Vec)
			if err != nil {
				return nil, err
			}
			greedy, err := joinTuplesVec(db, qs, mkGreedy, 0, c.Seed, fig13Vec)
			if err != nil {
				return nil, err
			}
			qaat, soloLearned, err := runQaaTAndExtractOrders(db, qs, c.Seed)
			if err != nil {
				return nil, err
			}
			stitchSim, err := joinTuplesVec(db, qs, stitchSimFactory(soloLearned), 0, c.Seed, fig13Vec)
			if err != nil {
				return nil, err
			}

			for _, r := range []Fig13Row{
				{batchID, size, "RouLette", learned},
				{batchID, size, "Greedy", greedy},
				{batchID, size, "Stitch&Share-Sim", stitchSim},
				{batchID, size, "RouLette-QaaT", qaat},
			} {
				rows = append(rows, r)
				sums[r.Policy] += r.JoinTuples
			}
			c.printf("batch %2d (n=%3d)  learned=%-10d greedy=%-10d stitchSim=%-10d qaat=%d\n",
				batchID, size, learned, greedy, stitchSim, qaat)
		}
	}
	if sums["RouLette"] > 0 {
		c.printf("summary: greedy/learned = %.2fx, stitchSim/learned = %.2fx, qaat/learned = %.2fx\n",
			float64(sums["Greedy"])/float64(sums["RouLette"]),
			float64(sums["Stitch&Share-Sim"])/float64(sums["RouLette"]),
			float64(sums["RouLette-QaaT"])/float64(sums["RouLette"]))
	}
	return rows, nil
}

// fig13Vec is the episode vector size of the policy-quality experiments.
const fig13Vec = 128

// stitchSimFactory adapts solo-learned order extraction into a policy
// factory for the shared executor.
func stitchSimFactory(soloLearned func(*query.Batch) map[policy.OrderKey][]int) func(*query.Batch) policy.Policy {
	return func(b *query.Batch) policy.Policy {
		return policy.NewStatic(b, soloLearned(b))
	}
}

// mkGreedy builds the greedy policy for a compiled batch.
func mkGreedy(*query.Batch) policy.Policy { return policy.NewGreedy() }

// joinTuples runs the batch under a policy factory (nil = learned) and
// returns intermediate join tuples.
func joinTuples(db *storage.Database, qs []*query.Query, mk func(*query.Batch) policy.Policy, workers int, seed int64) (int64, error) {
	return joinTuplesVec(db, qs, mk, workers, seed, 0)
}

// joinTuplesVec is joinTuples with an explicit episode vector size; the
// policy-quality experiments use small vectors so the miniature substrates
// still yield enough episodes for Q-learning to converge (the paper's
// full-size tables give thousands of episodes per circular-scan pass).
func joinTuplesVec(db *storage.Database, qs []*query.Query, mk func(*query.Batch) policy.Policy, workers int, seed int64, vecSize int) (int64, error) {
	b, err := query.Compile(qs)
	if err != nil {
		return 0, err
	}
	opt := exec.DefaultOptions()
	opt.CollectRows = false
	if vecSize > 0 {
		opt.VectorSize = vecSize
	}
	cfg := engine.Config{Exec: opt, Workers: workers}
	if mk != nil {
		cfg.Policy = mk(b)
	} else {
		qc := qlearn.DefaultConfig()
		qc.Seed = seed
		cfg.Policy = qlearn.New(qc)
	}
	s, err := engine.NewSession(b, db, cfg)
	if err != nil {
		return 0, err
	}
	r, err := s.Run()
	if err != nil {
		return 0, err
	}
	return r.JoinTuples, nil
}

// runQaaTAndExtractOrders executes each query alone under the learned
// policy (RouLette QaaT), returning the summed join tuples and a factory
// that maps the solo-learned plans onto a later batch's edge IDs
// (Stitch&Share-Sim).
func runQaaTAndExtractOrders(db *storage.Database, qs []*query.Query, seed int64) (int64, func(*query.Batch) map[policy.OrderKey][]int, error) {
	var total int64
	type soloPlan struct {
		orders map[string][]string // sourceKey -> edge signatures in order
	}
	plans := make([]soloPlan, len(qs))

	for i, q := range qs {
		cp := *q
		sb, err := query.Compile([]*query.Query{&cp})
		if err != nil {
			return 0, nil, err
		}
		opt := exec.DefaultOptions()
		opt.CollectRows = false
		opt.VectorSize = fig13Vec
		qc := qlearn.DefaultConfig()
		qc.Seed = seed + int64(i)
		pol := qlearn.New(qc)
		s, err := engine.NewSession(sb, db, engine.Config{Exec: opt, Policy: pol})
		if err != nil {
			return 0, nil, err
		}
		r, err := s.Run()
		if err != nil {
			return 0, nil, err
		}
		total += r.JoinTuples

		// Extract the converged plan per source instance.
		plans[i].orders = make(map[string][]string)
		q01 := bitset.NewFull(1)
		g := sb.Snapshot()
		for _, src := range sb.QueryInsts(0) {
			lineage := uint64(1) << src
			var sigs []string
			for {
				cands := g.Candidates(nil, lineage, q01)
				if len(cands) == 0 {
					break
				}
				pick := cands[pol.BestJoin(lineage, q01, cands)]
				e := &sb.Edges[pick]
				sigs = append(sigs, edgeSignature(sb, e))
				target := e.A
				if lineage&(1<<e.A) != 0 {
					target = e.B
				}
				lineage |= 1 << target
			}
			plans[i].orders[instKeyOf(sb, src)] = sigs
		}
	}

	factory := func(b *query.Batch) map[policy.OrderKey][]int {
		// Map edge signatures to the big batch's edge IDs.
		sigToEdge := make(map[string]int, len(b.Edges))
		for i := range b.Edges {
			sigToEdge[edgeSignature(b, &b.Edges[i])] = i
		}
		orders := make(map[policy.OrderKey][]int)
		for qid := range b.Queries {
			for _, src := range b.QueryInsts(qid) {
				sigs := plans[qid].orders[instKeyOf(b, src)]
				var order []int
				for _, sig := range sigs {
					if ei, ok := sigToEdge[sig]; ok {
						order = append(order, ei)
					}
				}
				orders[policy.OrderKey{QID: qid, Source: src}] = order
			}
		}
		return orders
	}
	return total, factory, nil
}

// edgeSignature identifies an edge independently of batch numbering.
func edgeSignature(b *query.Batch, e *query.Edge) string {
	a := fmt.Sprintf("%s#%d.%s", b.Insts[e.A].Table, b.Insts[e.A].Occ, e.ACol)
	bb := fmt.Sprintf("%s#%d.%s", b.Insts[e.B].Table, b.Insts[e.B].Occ, e.BCol)
	if a > bb {
		a, bb = bb, a
	}
	return a + "=" + bb
}

// instKeyOf identifies an instance independently of batch numbering.
func instKeyOf(b *query.Batch, inst query.InstID) string {
	in := b.Insts[inst]
	return fmt.Sprintf("%s#%d", in.Table, in.Occ)
}

// Fig14Row is one dynamic-admission sample.
type Fig14Row struct {
	OverlapPct int
	GroupSize  int
	JoinTuples int64
}

// Fig14 measures the interplay between sharing and learning under runtime
// admission (Fig. 14): instances of a fixed JOB-style template admitted
// one/two/four at a time with varying input overlap between back-to-back
// admissions (0% = query-at-a-time, 100% = one batch).
func (c *Config) Fig14() ([]Fig14Row, error) {
	db := job.Generate(c.Seed)
	nInstances := 16
	overlaps := []int{0, 20, 40, 60, 80, 100}
	groups := []int{1, 2, 4}
	if c.Quick {
		nInstances = 8
		overlaps = []int{0, 50, 100}
		groups = []int{1, 4}
	}

	// Query-17a-like template: title ⋈ movie_companies ⋈ company_name
	// ⋈ movie_keyword ⋈ keyword, with per-instance predicate variations.
	rng := rand.New(rand.NewSource(c.Seed))
	mkInstance := func(i int) *query.Query {
		yLo := int64(1970 + rng.Intn(30))
		return &query.Query{
			Tag: fmt.Sprintf("17a-%d", i),
			Rels: []query.RelRef{
				{Table: "title", Alias: "t"},
				{Table: "movie_companies", Alias: "mc"},
				{Table: "company_name", Alias: "cn"},
				{Table: "movie_keyword", Alias: "mk"},
				{Table: "keyword", Alias: "k"},
			},
			Joins: []query.Join{
				{LeftAlias: "mc", LeftCol: "movie_id", RightAlias: "t", RightCol: "id"},
				{LeftAlias: "mc", LeftCol: "company_id", RightAlias: "cn", RightCol: "id"},
				{LeftAlias: "mk", LeftCol: "movie_id", RightAlias: "t", RightCol: "id"},
				{LeftAlias: "mk", LeftCol: "keyword_id", RightAlias: "k", RightCol: "id"},
			},
			Filters: []query.Filter{
				{Alias: "t", Col: "production_year", Lo: yLo, Hi: yLo + 20},
				{Alias: "cn", Col: "country_code", Lo: 0, Hi: 0},
				{Alias: "k", Col: "id", Lo: 0, Hi: int64(300 + rng.Intn(700))},
			},
		}
	}
	var qs []*query.Query
	for i := 0; i < nInstances; i++ {
		qs = append(qs, mkInstance(i))
	}

	c.printf("=== Fig 14: dynamic admission (input overlap vs cost) ===\n")
	var rows []Fig14Row
	for _, g := range groups {
		for _, ov := range overlaps {
			tuples, err := c.runWithAdmissions(db, qs, g, ov)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig14Row{OverlapPct: ov, GroupSize: g, JoinTuples: tuples})
			c.printf("RouLette-%d overlap=%3d%%  join tuples = %d\n", g, ov, tuples)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].GroupSize < rows[j].GroupSize })
	return rows, nil
}

// runWithAdmissions admits qs in groups of g; consecutive admissions overlap
// by ov percent of the largest link relation's scan.
func (c *Config) runWithAdmissions(db *storage.Database, qs []*query.Query, g, ov int) (int64, error) {
	b, err := query.Compile(qs)
	if err != nil {
		return 0, err
	}
	opt := exec.DefaultOptions()
	opt.CollectRows = false

	// Trigger instance: the largest relation in the batch.
	trigger, rows := query.InstID(0), -1
	for i, in := range b.Insts {
		n := db.MustTable(in.Table).NumRows()
		if n > rows {
			trigger, rows = query.InstID(i), n
		}
	}
	vectorsPerPass := (rows + opt.VectorSize - 1) / opt.VectorSize
	gap := int64(float64(vectorsPerPass) * (1 - float64(ov)/100))

	cfg := engine.Config{Exec: opt}
	qc := qlearn.DefaultConfig()
	qc.Seed = c.Seed
	cfg.Policy = qlearn.New(qc)
	for i := g; i < len(qs); i += g {
		var ids []int
		for j := i; j < i+g && j < len(qs); j++ {
			ids = append(ids, j)
		}
		cfg.AdmitAt = append(cfg.AdmitAt, engine.AdmitEvent{
			AfterVectors: int64(i/g) * gap,
			Inst:         trigger,
			QIDs:         ids,
		})
	}
	s, err := engine.NewSession(b, db, cfg)
	if err != nil {
		return 0, err
	}
	r, err := s.Run()
	if err != nil {
		return 0, err
	}
	return r.JoinTuples, nil
}
