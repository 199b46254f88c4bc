// Package qat implements DBMS-V, the vectorized query-at-a-time baseline of
// the paper's evaluation (§6.1): classic optimize-then-execute processing
// with selection pushdown, sampling-based cardinality estimation, greedy
// join ordering, and left-deep hash-join pipelines.
//
// Vectorized means: a plan's filters, join keys and residual predicates are
// bound to their column slices once, by Optimize; filters run one column at
// a time over 1024-row vectors into a selection vector (filter.go), on the
// driver and on every build side; each build side is one flat hash table
// (hashtable.go, shared with internal/monet); a probe step emits its
// matches as (input position, build row) pairs and gathers the carried
// row-ID columns one column at a time; and the pipeline's buffers are
// allocated per plan and reused by every vector.
package qat

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
	"github.com/roulette-db/roulette/internal/value"
)

// Engine is a query-at-a-time vectorized executor over a database.
type Engine struct {
	DB         *storage.Database
	VectorSize int // tuples per pipeline vector (default 1024)
	SampleSize int // rows sampled for selectivity estimation (default 1000)
}

// New returns an engine with default parameters.
func New(db *storage.Database) *Engine {
	return &Engine{DB: db, VectorSize: 1024, SampleSize: 1000}
}

// Step is one relation's role in a left-deep plan.
type Step struct {
	Alias    string
	Table    *storage.Table
	Filters  []query.Filter
	EstRows  float64 // filtered cardinality estimate
	JoinCol  string  // build-side key column (non-driver steps)
	ProbeRel int     // index (into Order) of the relation providing the probe key
	ProbeCol string
	// Residuals are cycle-closing join predicates whose second endpoint is
	// placed by this step; they filter the step's output.
	Residuals []ResCheck

	// What Optimize bound the names above to.
	bound     []boundFilter   // Filters
	keyCol    []int64         // Table.JoinCol
	probeCol  []int64         // Order[ProbeRel].Table.ProbeCol
	residuals []boundResidual // Residuals
}

// ResCheck compares two placed relations' columns for equality.
type ResCheck struct {
	RelA int // position in Order
	ColA string
	RelB int
	ColB string
}

// boundResidual is a ResCheck with its two columns resolved.
type boundResidual struct {
	relA, relB int
	colA, colB []int64
}

// Plan is an optimized left-deep execution plan for one SPJ query.
type Plan struct {
	q *query.Query
	// Order is the left-deep relation sequence; Order[0] is the pipeline
	// driver (exported so the MonetDB-style engine and the online-sharing
	// baselines can reuse the optimizer).
	Order []Step
}

// Optimize plans q: push selections down, estimate filtered cardinalities
// by sampling, pick the largest relation as the pipeline driver (fact-table
// heuristic) and greedily attach the smallest adjacent relation next.
func (e *Engine) Optimize(q *query.Query) (*Plan, error) {
	n := len(q.Rels)
	aliases := make([]string, n)
	tables := make([]*storage.Table, n)
	filters := make([][]query.Filter, n)
	aliasIdx := make(map[string]int, n)
	for i, r := range q.Rels {
		a := r.Alias
		if a == "" {
			a = r.Table
		}
		aliases[i] = a
		aliasIdx[a] = i
		t := e.DB.Table(r.Table)
		if t == nil {
			return nil, fmt.Errorf("qat: no table %q", r.Table)
		}
		tables[i] = t
	}
	for _, f := range q.Filters {
		i, ok := aliasIdx[f.Alias]
		if !ok {
			return nil, fmt.Errorf("qat: filter on unknown alias %q", f.Alias)
		}
		filters[i] = append(filters[i], f)
	}

	bound := make([][]boundFilter, n)
	est := make([]float64, n)
	for i := range est {
		var err error
		if bound[i], err = bindFilters(tables[i], filters[i]); err != nil {
			return nil, err
		}
		est[i] = float64(tables[i].NumRows()) * e.estimateSelectivity(tables[i].NumRows(), bound[i])
	}

	// Adjacency from join predicates; joins not used to attach a relation
	// (cycle closers) become residual checks. Side 0 of a join is its left
	// endpoint, side 1 its right.
	type adj struct {
		other int
		join  int
		side  int // the local endpoint's side of the join
	}
	adjacency := make([][]adj, n)
	used := make([]bool, len(q.Joins))
	joinIdx := make([][2]int, len(q.Joins))
	joinCols := make([][2][]int64, len(q.Joins))
	for ji, j := range q.Joins {
		li, lok := aliasIdx[j.LeftAlias]
		ri, rok := aliasIdx[j.RightAlias]
		if !lok || !rok {
			return nil, fmt.Errorf("qat: join references unknown alias")
		}
		joinIdx[ji] = [2]int{li, ri}
		for side, name := range [2]string{j.LeftCol, j.RightCol} {
			col, err := column(tables[joinIdx[ji][side]], name)
			if err != nil {
				return nil, err
			}
			joinCols[ji][side] = col
		}
		adjacency[li] = append(adjacency[li], adj{ri, ji, 0})
		adjacency[ri] = append(adjacency[ri], adj{li, ji, 1})
	}

	// Driver: the largest estimated relation (stream the fact, build dims).
	driver := 0
	for i := 1; i < n; i++ {
		if est[i] > est[driver] {
			driver = i
		}
	}

	plan := &Plan{q: q}
	placed := make([]bool, n)
	orderIdx := make([]int, 0, n) // relation index per order position
	placed[driver] = true
	orderIdx = append(orderIdx, driver)
	plan.Order = append(plan.Order, Step{
		Alias: aliases[driver], Table: tables[driver], Filters: filters[driver], EstRows: est[driver],
		bound: bound[driver],
	})
	for len(orderIdx) < n {
		bestRel, bestFrom := -1, -1
		var best adj
		for pos, ri := range orderIdx {
			for _, a := range adjacency[ri] {
				if placed[a.other] {
					continue
				}
				if bestRel == -1 || est[a.other] < est[bestRel] {
					bestRel, bestFrom, best = a.other, pos, a
				}
			}
		}
		if bestRel == -1 {
			return nil, fmt.Errorf("qat: disconnected join graph in query %q", q.Tag)
		}
		placed[bestRel] = true
		used[best.join] = true
		orderIdx = append(orderIdx, bestRel)
		j, cols := q.Joins[best.join], joinCols[best.join]
		names := [2]string{j.LeftCol, j.RightCol}
		plan.Order = append(plan.Order, Step{
			Alias: aliases[bestRel], Table: tables[bestRel], Filters: filters[bestRel],
			EstRows: est[bestRel],
			JoinCol: names[1-best.side], ProbeRel: bestFrom, ProbeCol: names[best.side],
			bound: bound[bestRel], keyCol: cols[1-best.side], probeCol: cols[best.side],
		})
	}
	// Attach cycle-closing joins as residual checks at the step where both
	// endpoints are placed.
	pos := make([]int, n)
	for p, ri := range orderIdx {
		pos[ri] = p
	}
	for ji, j := range q.Joins {
		if used[ji] {
			continue
		}
		li, ri := joinIdx[ji][0], joinIdx[ji][1]
		pa, pb := pos[li], pos[ri]
		step := pa
		if pb > pa {
			step = pb
		}
		st := &plan.Order[step]
		st.Residuals = append(st.Residuals, ResCheck{
			RelA: pa, ColA: j.LeftCol, RelB: pb, ColB: j.RightCol,
		})
		st.residuals = append(st.residuals, boundResidual{
			relA: pa, colA: joinCols[ji][0], relB: pb, colB: joinCols[ji][1],
		})
	}
	return plan, nil
}

// estimateSelectivity estimates the conjunctive selectivity of a relation's
// bound filters on an evenly spaced sample of its rows.
func (e *Engine) estimateSelectivity(rows int, fs []boundFilter) float64 {
	if len(fs) == 0 || rows == 0 {
		return 1
	}
	sample := e.SampleSize
	if sample <= 0 {
		sample = 1000
	}
	step := rows / sample
	if step == 0 {
		step = 1
	}
	sel := make([]int32, 0, (rows+step-1)/step)
	for r := 0; r < rows; r += step {
		sel = append(sel, int32(r))
	}
	seen := len(sel)
	for i := range fs {
		sel = fs[i].refine(sel)
	}
	// Clamp away from zero so join ordering stays sane on tiny samples.
	return max(float64(len(sel))/float64(seen), 1e-4)
}

// Execute runs the plan to completion and returns the SPJ result count. The
// pipeline streams the driver in vectors through the probe steps; every
// buffer is allocated here, once, and reused by all vectors.
func (e *Engine) Execute(p *Plan) int64 {
	vec := e.VectorSize
	if vec <= 0 {
		vec = 1024
	}
	n := len(p.Order)

	// Build sides: filter vector by vector into one selection, then hash.
	hts := make([]*HashTable, n)
	var sel []int32
	for i := 1; i < n; i++ {
		st := &p.Order[i]
		rows := st.Table.NumRows()
		sel = sel[:0]
		for from := 0; from < rows; from += vec {
			sel = st.Select(from, min(from+vec, rows), sel)
		}
		hts[i] = NewHashTable(st.keyCol, sel)
	}

	// Two sets of row-ID columns, one column per placed relation: step s
	// reads set (s-1)&1 and writes set s&1. Columns start a vector long and
	// keep whatever a fan-out grew them to.
	var cols [2][][]int32
	for i := range cols {
		cols[i] = make([][]int32, n)
		for c := range cols[i] {
			cols[i][c] = make([]int32, 0, vec)
		}
	}
	src := make([]int32, 0, vec) // input position of each probe match

	driver := &p.Order[0]
	rows := driver.Table.NumRows()
	var count int64
	for from := 0; from < rows; from += vec {
		cols[0][0] = driver.Select(from, min(from+vec, rows), cols[0][0][:0])
		cur := cols[0][:1]
		for s := 1; s < n && len(cur[0]) > 0; s++ {
			st := &p.Order[s]
			next := cols[s&1][:s+1]
			src, next[s] = probe(hts[s], st.probeCol, cur[st.ProbeRel], src[:0], next[s][:0])
			for c := 0; c < s; c++ {
				next[c] = gather(next[c], cur[c], src)
			}
			cur = p.ApplyResiduals(s, next)
		}
		if len(cur) == n {
			count += int64(len(cur[0]))
		}
	}
	return count
}

// probe looks up keyCol[from[i]] for every input position i and appends one
// (i, build row) pair per match to src and out.
func probe(ht *HashTable, keyCol []int64, from, src, out []int32) ([]int32, []int32) {
	for i, r := range from {
		for _, m := range ht.Lookup(keyCol[r]) {
			src = append(src, int32(i))
			out = append(out, m)
		}
	}
	return src, out
}

// gather returns col[src[0]], col[src[1]], ... in dst's storage, grown if it
// is too short.
func gather(dst, col, src []int32) []int32 {
	dst = slices.Grow(dst[:0], len(src))[:len(src)]
	for j, i := range src {
		dst[j] = col[i]
	}
	return dst
}

// ApplyResiduals filters the output of plan step step, one row-ID column
// per placed relation, with the step's cycle-closing predicates: rows is
// compacted in place and returned.
func (p *Plan) ApplyResiduals(step int, rows [][]int32) [][]int32 {
	for _, rc := range p.Order[step].residuals {
		a, b := rows[rc.relA], rows[rc.relB]
		out := 0
		for i := range a {
			// NULL = NULL is not a match.
			if v := rc.colA[a[i]]; v == rc.colB[b[i]] && v != value.NullCode {
				for _, col := range rows {
					col[out] = col[i]
				}
				out++
			}
		}
		for c := range rows {
			rows[c] = rows[c][:out]
		}
	}
	return rows
}

// Run optimizes and executes one query.
func (e *Engine) Run(q *query.Query) (int64, error) {
	p, err := e.Optimize(q)
	if err != nil {
		return 0, err
	}
	return e.Execute(p), nil
}

// RunSerial executes queries one after the other (the query-at-a-time
// throughput measurement) and returns per-query counts plus total time.
func (e *Engine) RunSerial(qs []*query.Query) ([]int64, time.Duration, error) {
	counts := make([]int64, len(qs))
	start := time.Now()
	for i, q := range qs {
		c, err := e.Run(q)
		if err != nil {
			return nil, 0, err
		}
		counts[i] = c
	}
	return counts, time.Since(start), nil
}

// RunConcurrent executes queries with the given number of concurrent
// clients (Fig. 20's inter-query interference experiment).
func (e *Engine) RunConcurrent(qs []*query.Query, clients int) ([]int64, time.Duration, error) {
	if clients <= 1 {
		return e.RunSerial(qs)
	}
	counts := make([]int64, len(qs))
	errs := make([]error, clients)
	var next int
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(qs) {
					return
				}
				cnt, err := e.Run(qs[i])
				if err != nil {
					errs[client] = err
					return
				}
				counts[i] = cnt
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return counts, time.Since(start), nil
}
