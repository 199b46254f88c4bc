package exec

import (
	"fmt"
	"strconv"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/catalog"
	"github.com/roulette-db/roulette/internal/plan"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
	"github.com/roulette-db/roulette/internal/value"
)

// StepBenchConfig sizes the steady-state episode-step harness.
type StepBenchConfig struct {
	NQueries   int           // queries in the batch (default 16)
	Rows       int           // fact-table rows (default 4096)
	VectorSize int           // tuples per episode vector (default 1024, at most Rows)
	Policy     policy.Policy // planning policy (default policy.NewRandom(1))

	// Final, when non-nil, marks the queries at these caller positions (the
	// order NewStepBench draws them in) final on the fact instance
	// (EpisodeInput.Final): each Step then also runs the masked STeM build
	// into the fact STeM. The fact STeM grows by up to VectorSize entries
	// per Step, so a zero-alloc guard keeps VectorSize × steps inside its
	// first chunk. Nil marks every query final, so nothing is built.
	Final bitset.Set
}

// StepBench drives the steady-state episode step in isolation: a prebuilt
// star batch (fact ⋈ dim1, fact ⋈ dim2, per-query range filters on the
// fact table) with the dimension STeMs fully populated and published. Every
// Step runs RunEpisode's own body on a fresh version slot — hook checks,
// ingest, grouped filters, compact, STeM build, publish, probes, routing
// selections, routers, cost measurement, policy update and the stats fold —
// over selection and join plans built once by NewStepBench.
//
// Plan construction is the one part of an episode left out: it allocates
// the per-episode operator tree by design. The zero-allocation contract
// (TestEpisodeStepZeroAlloc) covers everything else RunEpisode runs;
// DESIGN.md "Performance" spells out the boundary.
type StepBench struct {
	Ctx *Context
	W   *Worker

	in       EpisodeInput
	selSteps []plan.SelStep
	joinRoot *plan.Node
}

// NewStepBench builds the harness fixture and warms nothing: callers run a
// few Steps to reach steady state before measuring.
func NewStepBench(cfg StepBenchConfig) (*StepBench, error) {
	if cfg.NQueries <= 0 {
		cfg.NQueries = 16
	}
	if cfg.Rows <= 0 {
		cfg.Rows = 4096
	}
	if cfg.VectorSize <= 0 {
		cfg.VectorSize = 1024
	}
	if cfg.VectorSize > cfg.Rows {
		return nil, fmt.Errorf("exec: step bench vector of %d rows over a %d-row fact table", cfg.VectorSize, cfg.Rows)
	}
	pol := cfg.Policy
	if pol == nil {
		pol = policy.NewRandom(1)
	}

	// Typed fixture: the fact ⋈ dim2 join is string-keyed (both columns
	// share one dictionary, as the executor requires), fact.b and fact.v
	// are nullable with in-band NULL sentinels, and half the queries carry
	// a string IN-list — so the steady-state step exercises the typed
	// grouped-filter and NULL-skipping probe paths, and the zero-allocation
	// contract covers them.
	dimRows := cfg.Rows / 4
	if dimRows < 4 {
		dimRows = 4
	}
	dict := value.NewDict()
	bcodes := make([]int64, dimRows)
	for i := range bcodes {
		bcodes[i] = dict.Code("k" + strconv.Itoa(i))
	}

	fact := catalog.NewTypedRelation("fact",
		catalog.Column{Name: "a"},
		catalog.Column{Name: "b", Type: value.String, Nullable: true, Dict: dict},
		catalog.Column{Name: "v", Nullable: true},
	)
	d1 := catalog.NewRelation("dim1", "a")
	d2 := catalog.NewTypedRelation("dim2",
		catalog.Column{Name: "b", Type: value.String, Dict: dict},
	)
	db := storage.NewDatabase(catalog.NewSchema(fact, d1, d2))

	fa := make([]int64, cfg.Rows)
	fb := make([]int64, cfg.Rows)
	fv := make([]int64, cfg.Rows)
	for i := 0; i < cfg.Rows; i++ {
		fa[i] = int64(i % dimRows)
		fb[i] = bcodes[(i*7)%dimRows]
		if i%32 == 7 {
			fb[i] = value.NullCode // NULL probe keys match nothing
		}
		fv[i] = int64(i % 100)
		if i%16 == 5 {
			fv[i] = value.NullCode
		}
	}
	ft, err := storage.FromColumns(fact, fa, fb, fv)
	if err != nil {
		return nil, err
	}
	db.Put(ft)
	t1 := storage.NewTable(d1, dimRows)
	for i := 0; i < dimRows; i++ {
		t1.Col("a")[i] = int64(i)
	}
	db.Put(t1)
	t2, err := storage.FromColumns(d2, bcodes)
	if err != nil {
		return nil, err
	}
	db.Put(t2)

	qs := make([]*query.Query, cfg.NQueries)
	for i := range qs {
		qs[i] = &query.Query{
			Rels: []query.RelRef{{Table: "fact"}, {Table: "dim1"}, {Table: "dim2"}},
			Joins: []query.Join{
				{LeftAlias: "fact", LeftCol: "a", RightAlias: "dim1", RightCol: "a"},
				{LeftAlias: "fact", LeftCol: "b", RightAlias: "dim2", RightCol: "b"},
			},
			Filters: []query.Filter{{Alias: "fact", Col: "v", Lo: 0, Hi: int64(50 + i%50)}},
		}
		if i%2 == 1 {
			strs := make([]string, 8)
			for k := range strs {
				strs[k] = "k" + strconv.Itoa((i*3+k)%dimRows)
			}
			qs[i].Filters = append(qs[i].Filters, query.Filter{
				Alias: "fact", Col: "b", Kind: query.KindStrings, Strs: strs,
			})
		}
	}
	b, err := query.Compile(qs)
	if err != nil {
		return nil, err
	}
	opt := DefaultOptions()
	opt.CollectRows = false // sources count rows; unbounded row buffers would dominate
	opt.VectorSize = cfg.VectorSize
	ctx, err := NewContext(b, db, opt, nil)
	if err != nil {
		return nil, err
	}
	w := NewWorker(ctx, pol)

	factInst, ok := b.InstOfAlias(0, "fact")
	if !ok {
		return nil, fmt.Errorf("exec: steady fixture lost its fact instance")
	}

	// Populate the probed side: every dimension row, with the full query
	// set, one InsertVec per table; the episodes' fresh ticks see them all.
	active := bitset.NewFull(b.N)
	for inst := range b.Insts {
		if query.InstID(inst) == factInst {
			continue
		}
		n := ctx.Tables[inst].NumRows()
		rowIDs := make([]int32, n)
		qsets := make([]uint64, 0, n*len(active))
		for vid := range rowIDs {
			rowIDs[vid] = int32(vid)
			qsets = append(qsets, active...)
		}
		ctx.Stems[inst].InsertVec(rowIDs, ctx.stemKeySlices[inst], qsets, len(active), 0, nil)
	}

	final := active
	if cfg.Final != nil {
		final = bitset.New(b.N)
		cfg.Final.ForEach(func(p int) { final.Add(b.QIDAt(p)) })
	}
	in := EpisodeInput{
		Inst:   factInst,
		N:      cfg.VectorSize,
		Active: active,
		Final:  final,
		SelOps: ctx.SelOpsFor(factInst, nil),
	}

	sb := &StepBench{Ctx: ctx, W: w, in: in}
	sb.selSteps = plan.BuildSel(pol, factInst, active, in.SelOps)
	sb.joinRoot = plan.BuildJoin(ctx.Graph(), pol, factInst, active, ctx.ReqInsts)
	return sb, nil
}

// Step runs one episode through RunEpisode's body over the prebuilt plans
// and returns its report. After a handful of warm-up calls it performs zero
// heap allocations.
func (s *StepBench) Step() EpisodeReport {
	// The fixture sets no hooks, and only a hook can fail an episode.
	rep, _ := s.W.runEpisode(s.in, s.selSteps, s.joinRoot)
	return rep
}
