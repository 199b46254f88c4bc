// Package monet implements the MonetDB-style baseline of the evaluation:
// operator-at-a-time execution with full-column materialization. Every
// operator consumes and produces whole intermediate columns, so performance
// tracks intermediate sizes — fast at low selectivity, penalized by
// materialization at high selectivity (the behaviour Fig. 11b contrasts
// against the vectorized DBMS-V).
package monet

import (
	"sync"
	"time"

	"github.com/roulette-db/roulette/internal/qat"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
)

// Engine is an operator-at-a-time executor. Planning is shared with the
// DBMS-V optimizer (selection pushdown, greedy join order).
type Engine struct {
	opt *qat.Engine
}

// New returns an engine over db.
func New(db *storage.Database) *Engine {
	return &Engine{opt: qat.New(db)}
}

// Run optimizes and executes one query, returning the SPJ result count.
func (e *Engine) Run(q *query.Query) (int64, error) {
	p, err := e.opt.Optimize(q)
	if err != nil {
		return 0, err
	}
	return execute(p), nil
}

// execute runs the plan one whole operator at a time.
func execute(p *qat.Plan) int64 {
	n := len(p.Order)

	// Operator 1..k: full-column selections producing materialized row-ID
	// columns per relation, one whole filter column at a time.
	selected := make([][]int32, n)
	for i := range p.Order {
		st := &p.Order[i]
		selected[i] = st.Select(0, st.Table.NumRows(), nil)
	}
	if n == 1 {
		return int64(len(selected[0]))
	}

	// Hash builds, one whole relation at a time.
	hts := make([]*qat.HashTable, n)
	for i := 1; i < n; i++ {
		st := &p.Order[i]
		hts[i] = qat.NewHashTable(st.Table.Col(st.JoinCol), selected[i])
	}

	// Joins: materialize the whole intermediate result at every step.
	cur := [][]int32{selected[0]}
	for step := 1; step < n; step++ {
		st := &p.Order[step]
		keyCol := p.Order[st.ProbeRel].Table.Col(st.ProbeCol)
		probeFrom := cur[st.ProbeRel]
		ht := hts[step]
		next := make([][]int32, step+1)
		for i := range cur[0] {
			for _, m := range ht.Lookup(keyCol[probeFrom[i]]) {
				for c := 0; c < step; c++ {
					next[c] = append(next[c], cur[c][i])
				}
				next[step] = append(next[step], m)
			}
		}
		cur = p.ApplyResiduals(step, next)
		if len(cur[0]) == 0 {
			return 0
		}
	}
	return int64(len(cur[0]))
}

// RunSerial executes queries one after the other.
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

// RunConcurrent mirrors qat.RunConcurrent for interference experiments.
func (e *Engine) RunConcurrent(qs []*query.Query, clients int) ([]int64, time.Duration, error) {
	if clients <= 1 {
		return e.RunSerial(qs)
	}
	counts := make([]int64, len(qs))
	var next int
	var mu sync.Mutex
	var firstErr error
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
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
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				counts[i] = cnt
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, 0, firstErr
	}
	return counts, time.Since(start), nil
}
