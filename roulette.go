// Package roulette is an embeddable multi-query execution engine: a Go
// implementation of RouLette (Sioulas & Ailamaki, "Scalable Multi-Query
// Execution using Reinforcement Learning", SIGMOD 2021).
//
// RouLette executes batches of Select-Project-Join queries together,
// sharing scans, selections and join work across queries. Instead of
// optimizing before executing, it adapts a global query plan at runtime in
// vector-sized episodes, steering join and selection ordering with a
// specialized Q-learning policy that learns the long-term cost of planning
// decisions — including the benefit of sharing operators across queries.
//
// Basic use:
//
//	e := roulette.NewEngine()
//	e.MustCreateTable("fact", roulette.Col("fk", fk...), roulette.Col("v", v...))
//	e.MustCreateTable("dim", roulette.Col("k", k...), roulette.Col("g", g...))
//
//	q := roulette.NewQuery("q1").
//		From("fact").From("dim").
//		Join("fact", "fk", "dim", "k").
//		Between("fact", "v", 10, 20).
//		CountStar()
//
//	res, err := e.ExecuteBatch([]*roulette.Query{q}, nil)
//	fmt.Println(res.Queries[0].Count)
package roulette

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/catalog"
	"github.com/roulette-db/roulette/internal/cost"
	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/host"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/sharing"
	"github.com/roulette-db/roulette/internal/storage"
	"github.com/roulette-db/roulette/internal/value"
)

// NullValue is the in-band physical encoding of SQL NULL in int64 column
// data and group keys (math.MinInt64). The engine reserves it: NULL never
// satisfies a filter and never matches a join key. Nullable int64 columns
// therefore reject math.MinInt64 as regular data.
const NullValue int64 = value.NullCode

// Column is a named column used to create tables. Exactly one of Data
// (int64) or Strs (string) holds the values; string columns are
// dictionary-encoded to dense int64 codes at CreateTable, and the engine
// executes over the codes (late materialization over columnar storage).
// A non-nil Valid mask makes the column nullable: Valid[r] == false marks
// row r as NULL.
type Column struct {
	Name  string
	Data  []int64
	Strs  []string
	Valid []bool
}

// Col is a convenience constructor for an int64 Column.
func Col(name string, data ...int64) Column { return Column{Name: name, Data: data} }

// ColSlice wraps an existing slice without copying.
func ColSlice(name string, data []int64) Column { return Column{Name: name, Data: data} }

// StrCol builds a dictionary-encoded string Column.
func StrCol(name string, data ...string) Column { return Column{Name: name, Strs: data} }

// StrColSlice wraps an existing string slice without copying.
func StrColSlice(name string, data []string) Column { return Column{Name: name, Strs: data} }

// NullableCol builds a nullable int64 Column; valid[r] == false marks row r
// as NULL (data[r] is then ignored).
func NullableCol(name string, data []int64, valid []bool) Column {
	return Column{Name: name, Data: data, Valid: valid}
}

// NullableStrCol builds a nullable dictionary-encoded string Column;
// valid[r] == false marks row r as NULL (data[r] is then ignored).
func NullableStrCol(name string, data []string, valid []bool) Column {
	return Column{Name: name, Strs: data, Valid: valid}
}

// Engine owns an in-memory columnar database and executes query batches
// over it.
type Engine struct {
	schema *catalog.Schema
	db     *storage.Database

	calOnce    sync.Once
	calibrated *cost.Model
}

// NewEngine creates an empty engine.
func NewEngine() *Engine {
	sch := catalog.NewSchema()
	return &Engine{schema: sch, db: storage.NewDatabase(sch)}
}

// CreateTable registers a table from columns, which must all have the same
// length. String columns are dictionary-encoded (each gets its own fresh
// dictionary — use ShareDictionary afterwards to make string columns
// joinable across tables), and columns with a Valid mask become nullable.
func (e *Engine) CreateTable(name string, cols ...Column) error {
	if len(cols) == 0 {
		return fmt.Errorf("roulette: table %q needs at least one column", name)
	}
	if e.db.Table(name) != nil {
		return fmt.Errorf("roulette: table %q already exists", name)
	}
	rows := func(c Column) int {
		if c.Strs != nil {
			return len(c.Strs)
		}
		return len(c.Data)
	}
	n := rows(cols[0])
	schemaCols := make([]catalog.Column, len(cols))
	data := make([][]int64, len(cols))
	for i, c := range cols {
		if c.Data != nil && c.Strs != nil {
			return fmt.Errorf("roulette: table %q column %q sets both Data and Strs", name, c.Name)
		}
		if rows(c) != n {
			return fmt.Errorf("roulette: table %q column %q has %d rows, want %d", name, c.Name, rows(c), n)
		}
		if c.Valid != nil && len(c.Valid) != n {
			return fmt.Errorf("roulette: table %q column %q has %d validity bits, want %d", name, c.Name, len(c.Valid), n)
		}
		nullable := c.Valid != nil
		switch {
		case c.Strs != nil:
			dict := storage.NewDict()
			phys := make([]int64, n)
			for r, s := range c.Strs {
				if nullable && !c.Valid[r] {
					phys[r] = value.NullCode
				} else {
					phys[r] = dict.Code(s)
				}
			}
			schemaCols[i] = catalog.Column{Name: c.Name, Type: value.String, Nullable: nullable, Dict: dict}
			data[i] = phys
		case nullable:
			phys := make([]int64, n)
			for r, v := range c.Data {
				if !c.Valid[r] {
					phys[r] = value.NullCode
				} else if v == value.NullCode {
					return fmt.Errorf("roulette: table %q column %q row %d: math.MinInt64 is reserved as the NULL sentinel", name, c.Name, r)
				} else {
					phys[r] = v
				}
			}
			schemaCols[i] = catalog.Column{Name: c.Name, Nullable: true}
			data[i] = phys
		default:
			schemaCols[i] = catalog.Column{Name: c.Name}
			data[i] = c.Data
		}
	}
	rel := catalog.NewTypedRelation(name, schemaCols...)
	if err := e.schema.AddRelation(rel); err != nil {
		return err
	}
	t, err := storage.FromColumns(rel, data...)
	if err != nil {
		return err
	}
	e.db.Put(t)
	return nil
}

// ShareDictionary unifies the dictionaries behind the named string columns
// (each ref is "table.col") so their codes are directly comparable — the
// prerequisite for joining string columns, which the engine compares by
// dictionary code. Codes already stored are remapped in place; every other
// column sharing a merged dictionary is remapped along with it, so the
// operation is safe to apply after arbitrary prior unifications.
func (e *Engine) ShareDictionary(refs ...string) error {
	if len(refs) < 2 {
		return fmt.Errorf("roulette: ShareDictionary needs at least two columns, got %d", len(refs))
	}
	type colRef struct {
		table, col string
		cat        *catalog.Column
	}
	parsed := make([]colRef, len(refs))
	for i, ref := range refs {
		dot := strings.IndexByte(ref, '.')
		if dot <= 0 || dot == len(ref)-1 {
			return fmt.Errorf("roulette: ShareDictionary ref %q is not of the form table.col", ref)
		}
		table, col := ref[:dot], ref[dot+1:]
		if e.db.Table(table) == nil {
			return fmt.Errorf("roulette: ShareDictionary: unknown table %q", table)
		}
		c := e.schema.Relation(table).Column(col)
		if c == nil {
			return fmt.Errorf("roulette: ShareDictionary: table %q has no column %q", table, col)
		}
		if c.Type != value.String || c.Dict == nil {
			return fmt.Errorf("roulette: ShareDictionary: %s is not a string column", ref)
		}
		parsed[i] = colRef{table: table, col: col, cat: c}
	}
	target := parsed[0].cat.Dict
	for _, p := range parsed[1:] {
		old := p.cat.Dict
		if old == target {
			continue
		}
		remap := target.Merge(old)
		// Remap every column in the database that used the old dictionary,
		// not just the named one — dictionaries can already be shared.
		for _, tn := range e.db.TableNames() {
			t := e.db.MustTable(tn)
			for ci := range t.Rel.Columns {
				c := &t.Rel.Columns[ci]
				if c.Dict != old {
					continue
				}
				col := t.Col(c.Name)
				for r, v := range col {
					if v != value.NullCode {
						col[r] = remap[v]
					}
				}
				c.Dict = target
			}
		}
	}
	return nil
}

// MustCreateTable is CreateTable, panicking on error (for setup code).
func (e *Engine) MustCreateTable(name string, cols ...Column) {
	if err := e.CreateTable(name, cols...); err != nil {
		panic(err)
	}
}

// Database exposes the underlying storage for advanced integrations (the
// benchmark harness loads pre-generated substrates through this).
func (e *Engine) Database() *storage.Database { return e.db }

// NewEngineOn wraps an existing database (substrate generators).
func NewEngineOn(db *storage.Database) *Engine {
	return &Engine{schema: db.Schema, db: db}
}

// PolicyKind selects the planning policy for a batch.
type PolicyKind int

// Available planning policies.
const (
	// PolicyLearned is RouLette's Q-learning policy (the default).
	PolicyLearned PolicyKind = iota
	// PolicyGreedy is the CACQ/CJOIN selectivity heuristic.
	PolicyGreedy
	// PolicyRandom explores uniformly (debugging, lower bounds).
	PolicyRandom
	// PolicyStitchShare replays per-query optimizer plans, sharing common
	// prefixes (the QPipe/SharedDB online-sharing strategy).
	PolicyStitchShare
	// PolicyMatchShare extends the global plan query by query with maximum
	// overlap (the DataPath strategy).
	PolicyMatchShare
)

// Admission staggers query activation for dynamic workloads: the listed
// query indexes are admitted once the given fraction of the batch's largest
// relation has been scanned.
type Admission struct {
	AfterFraction float64
	Queries       []int
}

// Options tune batch execution. The zero value (or nil) uses the paper's
// defaults: learned policy, 1024-tuple vectors, one worker, every executor
// optimization on.
type Options struct {
	Policy     PolicyKind
	Workers    int
	VectorSize int

	// Seed makes the learned/random policies deterministic.
	Seed int64

	// DisablePruning, DisableGroupedFilters and DisableLocalityRouter switch
	// off individual §5 optimizations (ablation studies).
	DisablePruning        bool
	DisableGroupedFilters bool
	DisableLocalityRouter bool

	// DiscardRows keeps only result counts (large throughput benchmarks).
	DiscardRows bool

	// TrackConvergence records per-episode measured and estimated costs.
	TrackConvergence bool

	// Admissions activates queries during the run instead of at the start.
	Admissions []Admission

	// CalibrateCostModel micro-benchmarks the executor's operator classes on
	// this machine and fits the cost model by linear regression (§4.3),
	// replacing the paper's Xeon-tuned constants. Calibration runs once per
	// Engine and takes a few tens of milliseconds.
	CalibrateCostModel bool

	// Deadline bounds the whole batch execution; 0 means no deadline. A
	// batch exceeding it is cancelled cooperatively and returns partial
	// results (BatchResult.Partial, per-query Aborted/Err). Composes with
	// any deadline already on the ExecuteBatchContext context.
	Deadline time.Duration

	// EpisodeWatchdog flags any single episode running longer than this as
	// a stall fault and cancels the rest of the batch; 0 disables it.
	EpisodeWatchdog time.Duration

	// TraceEpisodes makes every episode record its execution log on the
	// engine's flight recorder — one event per operator the policy chose,
	// with its input and output sizes — and keeps about the last N episodes
	// there. A batch decodes them into records carrying the chosen action
	// sequence, active query count, cost and duration (BatchResult.Trace,
	// WriteTraceJSONL); a stream, whose recorder is always on, shows them as
	// "action" events between each episode's start and end in
	// Stream.WriteTrace and /debug/roulette/trace. 0 disables tracing.
	TraceEpisodes int

	// Logger receives the engine's structured diagnostics — most notably
	// the stall watchdog's reports (StreamOptions.StallWatchdog). Nil
	// discards everything; execution never logs on the hot path either way.
	Logger *slog.Logger

	// PolicyStore warm-starts the learned policy from (and exports it back
	// into) a template-keyed snapshot cache, so recurring workloads skip
	// the exploration earlier runs already paid for. Only PolicyLearned
	// uses it; a cold (or nil) store leaves execution bit-for-bit
	// identical to a run without one. On batches the import happens before
	// the run and the export after it; on streams, at every Submit and
	// every retirement sweep (plus Close). See NewPolicyStore.
	PolicyStore *PolicyStore
}

// execOptions converts Options to the internal executor options.
func (o *Options) execOptions() exec.Options {
	opt := exec.DefaultOptions()
	if o == nil {
		return opt
	}
	if o.VectorSize > 0 {
		opt.VectorSize = o.VectorSize
	}
	opt.Pruning = !o.DisablePruning
	opt.GroupedFilters = !o.DisableGroupedFilters
	opt.LocalityRouter = !o.DisableLocalityRouter
	opt.CollectRows = !o.DiscardRows
	return opt
}

// sessionConfig maps Options onto the engine's session configuration — the
// executor switches, limits, logger, episode tracing, calibrated cost model,
// planning policy over b, and the PolicyStore export hook — for batches and
// streams alike. The returned link is nil unless a PolicyStore is attached
// to a learned policy.
func (e *Engine) sessionConfig(b *query.Batch, o *Options) (engine.Config, *warmLink, error) {
	if o == nil {
		o = &Options{}
	}
	cfg := engine.Config{
		Exec:             o.execOptions(),
		Workers:          o.Workers,
		TrackConvergence: o.TrackConvergence,
		SessionDeadline:  o.Deadline,
		EpisodeWatchdog:  o.EpisodeWatchdog,
		TraceEpisodes:    o.TraceEpisodes,
		Logger:           o.Logger,
	}
	if o.CalibrateCostModel {
		e.calOnce.Do(func() {
			seed := o.Seed
			if seed == 0 {
				seed = 1
			}
			e.calibrated = exec.CalibrateModel(seed)
		})
		cfg.Model = e.calibrated
	}
	pol, err := e.buildPolicy(b, o)
	if err != nil {
		return cfg, nil, err
	}
	cfg.Policy = pol
	link := newWarmLink(o.PolicyStore, pol)
	if link != nil {
		// The engine calls this at the last moment retiring queries' learned
		// state is still addressable by live IDs: on every collection pass
		// of an open session and once when the worker pool exits. Under the
		// session mutex, between episodes — never on the episode step.
		cfg.PolicySweep = func(b *query.Batch, ctx *exec.Context, live bitset.Set) {
			link.export(b, ctx, live)
		}
	}
	return cfg, link, nil
}

// compileCopy returns a copy of the query for compilation (the batch or stream
// assigns its own IDs), or the reason the query cannot run under o.
func (q *Query) compileCopy(o *Options) (*query.Query, error) {
	if q.err != nil {
		return nil, fmt.Errorf("roulette: query %q: %w", q.q.Tag, q.err)
	}
	if o != nil && o.DiscardRows && (q.q.Agg.Kind.NeedsColumn() || q.q.Agg.GroupByAlias != "") {
		return nil, fmt.Errorf("roulette: query %q: DiscardRows keeps only counts, but the query's aggregate needs result rows", q.q.Tag)
	}
	cp := q.q
	return &cp, nil
}

// ExecuteBatch compiles and runs a batch of queries to completion, sharing
// work across them, and returns per-query results.
func (e *Engine) ExecuteBatch(qs []*Query, o *Options) (*BatchResult, error) {
	return e.ExecuteBatchContext(context.Background(), qs, o)
}

// ExecuteBatchContext is ExecuteBatch under a context. Cancellation (or an
// expired deadline) stops the batch cooperatively at the next episode
// boundary and returns what finished: the result has Partial set and every
// query carries a completed/aborted status, so callers still get exact
// counts for the queries that drained before the cut.
func (e *Engine) ExecuteBatchContext(ctx context.Context, qs []*Query, o *Options) (*BatchResult, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("roulette: empty batch")
	}
	inner := make([]*query.Query, len(qs))
	for i, q := range qs {
		var err error
		if inner[i], err = q.compileCopy(o); err != nil {
			return nil, err
		}
	}
	b, err := query.Compile(inner)
	if err != nil {
		return nil, err
	}
	cfg, link, err := e.sessionConfig(b, o)
	if err != nil {
		return nil, err
	}
	if o != nil && len(o.Admissions) > 0 {
		// Trigger on the batch's largest relation instance.
		trigger, vectorsPerPass := e.largestInstance(b, cfg.Exec.VectorSize)
		for _, a := range o.Admissions {
			cfg.AdmitAt = append(cfg.AdmitAt, engine.AdmitEvent{
				AfterVectors: int64(a.AfterFraction * float64(vectorsPerPass)),
				Inst:         trigger,
				QIDs:         a.Queries,
			})
		}
	}

	s, err := engine.NewSession(b, e.db, cfg)
	if err != nil {
		return nil, err
	}
	link.importOnAdmit(b, s.Context(), bitset.NewFull(b.N), b.N)
	res, err := s.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	return e.buildResult(b, s, res)
}

// queryResult turns a retired query's source into its public result: the
// count, the host-side aggregate with string group keys decoded, and — when
// the engine did not complete the query — the aborted status, under which
// count and groups are lower bounds. The error is host.Consume's.
func (e *Engine) queryResult(b *query.Batch, qid int, src *exec.Source, st engine.QueryStatus) (QueryResult, error) {
	qr := QueryResult{Tag: b.Queries[qid].Tag, Count: src.Count()}
	if !st.Completed {
		qr.Aborted, qr.Err = true, st.Err
	}
	hostRes, err := host.Consume(e.db, b, qid, src)
	if err != nil {
		return qr, err
	}
	for _, g := range hostRes.Groups {
		qr.Groups = append(qr.Groups, Group{Key: g.Key, Value: g.Value})
	}
	e.decodeGroups(b, qid, &qr)
	return qr, nil
}

// decodeGroups fills Group.Label for string-typed GROUP BY keys and, when
// the query asked for key order, re-sorts by the decoded label (the host
// consumer sorted by dictionary code, which is not lexicographic).
func (e *Engine) decodeGroups(b *query.Batch, qid int, qr *QueryResult) {
	q := b.Queries[qid]
	if q.Agg.GroupByAlias == "" || len(qr.Groups) == 0 {
		return
	}
	_, table, ok := b.RelOfAlias(qid, q.Agg.GroupByAlias)
	if !ok {
		return
	}
	rel := e.schema.Relation(table)
	if rel == nil {
		return
	}
	c := rel.Column(q.Agg.GroupByCol)
	if c == nil || c.Type != value.String || c.Dict == nil {
		return
	}
	for i := range qr.Groups {
		if qr.Groups[i].Key != NullValue {
			qr.Groups[i].Label = c.Dict.Value(qr.Groups[i].Key)
		}
	}
	if q.Agg.Sorted {
		sort.Slice(qr.Groups, func(i, j int) bool {
			a, bg := qr.Groups[i], qr.Groups[j]
			if (a.Key == NullValue) != (bg.Key == NullValue) {
				return a.Key == NullValue
			}
			return a.Label < bg.Label
		})
	}
}

// buildPolicy instantiates the requested planning policy.
func (e *Engine) buildPolicy(b *query.Batch, o *Options) (policy.Policy, error) {
	kind := PolicyLearned
	var seed int64 = 1
	if o != nil {
		kind = o.Policy
		if o.Seed != 0 {
			seed = o.Seed
		}
	}
	switch kind {
	case PolicyLearned:
		cfg := qlearn.DefaultConfig()
		cfg.Seed = seed
		return qlearn.New(cfg), nil
	case PolicyGreedy:
		return policy.NewGreedy(), nil
	case PolicyRandom:
		return policy.NewRandom(seed), nil
	case PolicyStitchShare:
		orders, err := sharing.StitchShareOrders(b, e.db)
		if err != nil {
			return nil, err
		}
		return policy.NewStatic(orders), nil
	case PolicyMatchShare:
		return policy.NewStatic(sharing.MatchShareOrders(b, e.db, nil)), nil
	}
	return nil, fmt.Errorf("roulette: unknown policy %d", kind)
}

// largestInstance finds the admission trigger instance and its pass length.
func (e *Engine) largestInstance(b *query.Batch, vectorSize int) (query.InstID, int) {
	best, bestRows := query.InstID(0), -1
	for i, in := range b.Insts {
		rows := e.db.MustTable(in.Table).NumRows()
		if rows > bestRows {
			best, bestRows = query.InstID(i), rows
		}
	}
	if vectorSize <= 0 {
		vectorSize = 1024
	}
	return best, (bestRows + vectorSize - 1) / vectorSize
}

// buildResult drains host-side consumers into the public result shape.
func (e *Engine) buildResult(b *query.Batch, s *engine.Session, res *engine.Results) (*BatchResult, error) {
	out := &BatchResult{
		Elapsed:    res.Elapsed,
		Episodes:   res.Episodes,
		JoinTuples: res.JoinTuples,
		Partial:    res.Partial,
		Queries:    make([]QueryResult, b.N),
		Stats:      res.Stats,
		trace:      s.Trace(),
	}
	for _, c := range res.Convergence {
		out.Convergence = append(out.Convergence, ConvergencePoint{
			Episode: c.Episode, Measured: c.Measured, Estimated: c.Estimated,
		})
	}
	for qid := range out.Queries {
		var err error
		if out.Queries[qid], err = e.queryResult(b, qid, s.Context().Sources[qid], res.Status[qid]); err != nil {
			return nil, err
		}
	}
	return out, nil
}
