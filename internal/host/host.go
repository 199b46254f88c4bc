// Package host implements the host-DBMS side of the architecture (§3):
// RouLette sources pipeline SPJ result tuples to consumer operators —
// aggregations, group-bys, and the sorts the host optimizer adds because
// RouLette does not preserve interesting orders.
package host

import (
	"fmt"
	"math"
	"sort"

	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
	"github.com/roulette-db/roulette/internal/value"
)

// Group is one aggregate output row.
type Group struct {
	Key   int64 // group key; 0 for the global group
	Value int64 // COUNT or SUM
}

// Result is a query's host-side output.
type Result struct {
	QID    int
	Groups []Group // one entry for ungrouped aggregates
}

// Consume drains a query's RouLette source through its host consumer:
// COUNT(*) or SUM(col), optionally grouped and sorted.
func Consume(db *storage.Database, b *query.Batch, qid int, src *exec.Source) (*Result, error) {
	q := b.Queries[qid]
	res := &Result{QID: qid}

	// Fast path: plain COUNT(*) needs no rows.
	if q.Agg.Kind == query.AggCount && q.Agg.GroupByAlias == "" {
		res.Groups = []Group{{Value: src.Count()}}
		return res, nil
	}

	rows, width := src.Rows()
	n := 0
	if width > 0 {
		n = len(rows) / width
	}

	colOf := func(alias, col string) ([]int64, int, error) {
		inst, table, ok := b.RelOfAlias(qid, alias)
		if !ok {
			return nil, 0, fmt.Errorf("host: query %d: unknown alias %q", qid, alias)
		}
		pos := -1
		for i, in := range src.Insts {
			if in == inst {
				pos = i
				break
			}
		}
		if pos < 0 {
			return nil, 0, fmt.Errorf("host: query %d: source does not carry alias %q (adaptive projection mismatch)", qid, alias)
		}
		return db.MustTable(table).Col(col), pos, nil
	}

	var aggCol []int64
	var aggPos int
	if q.Agg.Kind.NeedsColumn() {
		var err error
		aggCol, aggPos, err = colOf(q.Agg.Alias, q.Agg.Col)
		if err != nil {
			return nil, err
		}
	}
	var keyCol []int64
	var keyPos int
	grouped := q.Agg.GroupByAlias != ""
	if grouped {
		var err error
		keyCol, keyPos, err = colOf(q.Agg.GroupByAlias, q.Agg.GroupByCol)
		if err != nil {
			return nil, err
		}
	}

	if !grouped {
		// SQL semantics: value aggregates ignore NULL inputs (COUNT(*) still
		// counts the row — it takes the no-rows fast path above).
		st := newAggState(q.Agg.Kind)
		for r := 0; r < n; r++ {
			if v := aggCol[rows[r*width+aggPos]]; v != value.NullCode {
				st.add(v)
			}
		}
		res.Groups = []Group{{Value: st.value()}}
		return res, nil
	}

	// NULL group keys accumulate under one NullCode group, matching SQL
	// GROUP BY (all NULLs form a single group).
	acc := make(map[int64]*aggState)
	for r := 0; r < n; r++ {
		k := keyCol[rows[r*width+keyPos]]
		st := acc[k]
		if st == nil {
			st = newAggState(q.Agg.Kind)
			acc[k] = st
		}
		if q.Agg.Kind == query.AggCount {
			st.add(0)
		} else if v := aggCol[rows[r*width+aggPos]]; v != value.NullCode {
			st.add(v)
		}
	}
	res.Groups = make([]Group, 0, len(acc))
	for k, st := range acc {
		res.Groups = append(res.Groups, Group{Key: k, Value: st.value()})
	}
	if q.Agg.Sorted {
		sort.Slice(res.Groups, func(i, j int) bool { return res.Groups[i].Key < res.Groups[j].Key })
	}
	return res, nil
}

// aggState accumulates one group's aggregate.
type aggState struct {
	kind  query.AggKind
	sum   int64
	count int64
	min   int64
	max   int64
}

func newAggState(kind query.AggKind) *aggState {
	return &aggState{kind: kind, min: math.MaxInt64, max: math.MinInt64}
}

func (s *aggState) add(v int64) {
	s.count++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

func (s *aggState) value() int64 {
	switch s.kind {
	case query.AggCount:
		return s.count
	case query.AggSum:
		return s.sum
	case query.AggMin:
		if s.count == 0 {
			return 0
		}
		return s.min
	case query.AggMax:
		if s.count == 0 {
			return 0
		}
		return s.max
	case query.AggAvg:
		if s.count == 0 {
			return 0
		}
		return s.sum / s.count
	}
	return 0
}
