// Package sharing implements the online-sharing baselines the paper
// compares RouLette against (§6.1) and a small exhaustive multi-query
// optimizer that demonstrates why offline sharing cannot scale.
//
// Both online baselines execute inside the shared batched executor as
// *static policies* (policy.Static): what distinguishes them is how their
// per-(query, source) probe orders are derived.
//
//   - Stitch&Share (QPipe, SharedDB): each query is planned independently
//     by the query-at-a-time optimizer; the shared engine then overlaps
//     common plan prefixes. Queries with the same locally-optimal prefix
//     share; permuted orders that would expose more sharing are missed —
//     the Figure 1 limitation.
//
//   - Match&Share (DataPath): queries are admitted one at a time; each new
//     query's plan greedily follows the existing global plan's most popular
//     edges (maximum overlap / minimum added cost), falling back to the
//     smallest-relation heuristic. The result is sensitive to admission
//     order, as the paper notes.
package sharing

import (
	"fmt"
	"time"

	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/qat"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/storage"
)

// StitchShareOrders derives per-(query, source) probe orders from
// independent query-at-a-time plans: for each source relation the
// remaining relations are attached greedily by the per-query optimizer's
// cardinality estimates, exactly as the QaaT engine would order a plan
// rooted there.
func StitchShareOrders(b *query.Batch, db *storage.Database) (map[policy.OrderKey][]int, error) {
	e := qat.New(db)
	orders := make(map[policy.OrderKey][]int)
	for qid, q := range b.Queries {
		p, err := e.Optimize(q)
		if err != nil {
			return nil, err
		}
		est := make(map[string]float64, len(p.Order))
		for i := range p.Order {
			est[p.Order[i].Alias] = p.Order[i].EstRows
		}
		for _, srcInst := range b.QueryInsts(qid) {
			key := policy.OrderKey{QID: qid, Source: srcInst}
			orders[key] = orderFrom(b, qid, srcInst, func(edgeID int, target query.InstID) float64 {
				return estOf(b, qid, target, est)
			})
		}
	}
	return orders, nil
}

// estOf resolves the optimizer's estimate for the alias mapped to target.
func estOf(b *query.Batch, qid int, target query.InstID, est map[string]float64) float64 {
	q := b.Queries[qid]
	insts := b.QueryInsts(qid)
	for i, r := range q.Rels {
		if insts[i] == target {
			a := r.Alias
			if a == "" {
				a = r.Table
			}
			return est[a]
		}
	}
	return 0
}

// orderFrom builds a left-deep edge order for query qid rooted at src,
// repeatedly choosing the reachable edge minimizing score(edge, target).
func orderFrom(b *query.Batch, qid int, src query.InstID, score func(edgeID int, target query.InstID) float64) []int {
	lineage := uint64(1) << src
	qEdges := b.QueryEdges(qid)
	var order []int
	for len(order) < len(qEdges) {
		best, bestScore := -1, 0.0
		var bestTarget query.InstID
		for _, ei := range qEdges {
			e := &b.Edges[ei]
			aIn := lineage&(1<<e.A) != 0
			bIn := lineage&(1<<e.B) != 0
			if aIn == bIn {
				continue
			}
			target := e.A
			if aIn {
				target = e.B
			}
			s := score(ei, target)
			if best == -1 || s < bestScore {
				best, bestScore, bestTarget = ei, s, target
			}
		}
		if best == -1 {
			break // disconnected remainder; should not happen for valid queries
		}
		order = append(order, best)
		lineage |= 1 << bestTarget
	}
	return order
}

// MatchShareOrders builds orders DataPath-style: queries are processed in
// the caller's order (query.Batch.QIDAt); each picks, at every step, the
// edge already used by the most previously processed queries at the same
// position in the global plan (maximum overlap), breaking ties toward the
// smallest target relation.
func MatchShareOrders(b *query.Batch, db *storage.Database) map[policy.OrderKey][]int {
	rows := func(inst query.InstID) float64 {
		t := db.Table(b.Insts[inst].Table)
		if t == nil {
			return 0
		}
		return float64(t.NumRows())
	}
	// trieRef[source][lineage][edge] = number of earlier queries that chose
	// edge at the sub-expression identified by lineage.
	type trieKey struct {
		src     query.InstID
		lineage uint64
	}
	trie := make(map[trieKey]map[int]int)

	orders := make(map[policy.OrderKey][]int)
	for p := 0; p < b.N; p++ {
		qid := b.QIDAt(p)
		for _, src := range b.QueryInsts(qid) {
			lineage := uint64(1) << src
			qEdges := b.QueryEdges(qid)
			var order []int
			for len(order) < len(qEdges) {
				refs := trie[trieKey{src, lineage}]
				best, bestRef, bestRows := -1, -1, 0.0
				var bestTarget query.InstID
				for _, ei := range qEdges {
					e := &b.Edges[ei]
					aIn := lineage&(1<<e.A) != 0
					bIn := lineage&(1<<e.B) != 0
					if aIn == bIn {
						continue
					}
					target := e.A
					if aIn {
						target = e.B
					}
					ref := refs[ei]
					r := rows(target)
					better := false
					switch {
					case best == -1:
						better = true
					case ref > bestRef:
						better = true
					case ref == bestRef && r < bestRows:
						better = true
					}
					if better {
						best, bestRef, bestRows, bestTarget = ei, ref, r, target
					}
				}
				if best == -1 {
					break
				}
				tk := trieKey{src, lineage}
				if trie[tk] == nil {
					trie[tk] = make(map[int]int)
				}
				trie[tk][best]++
				order = append(order, best)
				e := &b.Edges[best]
				_ = e
				lineage |= 1 << bestTarget
			}
			orders[policy.OrderKey{QID: qid, Source: src}] = order
		}
	}
	return orders
}

// MQOResult reports one exhaustive shared-workload optimization attempt.
type MQOResult struct {
	Queries    int
	PlansTried int64
	BestCost   float64
	Elapsed    time.Duration
	TimedOut   bool
}

// ExhaustiveMQO searches, per query, over all left-deep join orders rooted
// at the batch's fact-like source, costing global plans by prefix-shared
// estimated intermediate tuples. The search space is the product of the
// per-query order counts — doubly exponential in practice — which is the
// scalability wall that motivates RouLette (§6.1's SWO anecdote: 137 s for
// 11 queries). The search aborts at the timeout.
func ExhaustiveMQO(b *query.Batch, db *storage.Database, src query.InstID, timeout time.Duration) MQOResult {
	start := time.Now()
	res := MQOResult{Queries: b.N, BestCost: -1}

	// Enumerate per-query candidate orders (all valid left-deep sequences).
	perQuery := make([][][]int, b.N)
	for qid := 0; qid < b.N; qid++ {
		perQuery[qid] = enumerateOrders(b, qid, src, &res, start, timeout)
		if res.TimedOut {
			res.Elapsed = time.Since(start)
			return res
		}
	}

	rows := func(inst query.InstID) float64 {
		return float64(db.MustTable(b.Insts[inst].Table).NumRows())
	}

	// Cost a combination: shared prefixes are counted once.
	choice := make([]int, b.N)
	var rec func(qid int) bool
	rec = func(qid int) bool {
		if time.Since(start) > timeout {
			res.TimedOut = true
			return false
		}
		if qid == b.N {
			res.PlansTried++
			cost := costCombination(b, perQuery, choice, src, rows)
			if res.BestCost < 0 || cost < res.BestCost {
				res.BestCost = cost
			}
			return true
		}
		for c := range perQuery[qid] {
			choice[qid] = c
			if !rec(qid + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
	res.Elapsed = time.Since(start)
	return res
}

// enumerateOrders lists every valid left-deep edge order of query qid
// rooted at src (or at the query's first instance if it lacks src).
func enumerateOrders(b *query.Batch, qid int, src query.InstID, res *MQOResult, start time.Time, timeout time.Duration) [][]int {
	root := src
	if !b.Insts[src].Queries.Contains(qid) {
		root = b.QueryInsts(qid)[0]
	}
	qEdges := b.QueryEdges(qid)
	var out [][]int
	var rec func(lineage uint64, cur []int)
	rec = func(lineage uint64, cur []int) {
		if res.TimedOut || time.Since(start) > timeout {
			res.TimedOut = true
			return
		}
		if len(cur) == len(qEdges) {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for _, ei := range qEdges {
			used := false
			for _, u := range cur {
				if u == ei {
					used = true
					break
				}
			}
			if used {
				continue
			}
			e := &b.Edges[ei]
			aIn := lineage&(1<<e.A) != 0
			bIn := lineage&(1<<e.B) != 0
			if aIn == bIn {
				continue
			}
			target := e.A
			if aIn {
				target = e.B
			}
			rec(lineage|1<<target, append(cur, ei))
		}
	}
	rec(1<<root, nil)
	return out
}

// costCombination estimates total intermediate tuples of a global plan that
// prefix-shares the chosen per-query orders.
func costCombination(b *query.Batch, perQuery [][][]int, choice []int, src query.InstID, rows func(query.InstID) float64) float64 {
	type prefix struct {
		src query.InstID
		key string
	}
	seen := map[prefix]bool{}
	total := 0.0
	for qid := 0; qid < b.N; qid++ {
		orders := perQuery[qid]
		if len(orders) == 0 {
			continue
		}
		order := orders[choice[qid]]
		root := src
		if !b.Insts[src].Queries.Contains(qid) {
			root = b.QueryInsts(qid)[0]
		}
		size := rows(root)
		key := ""
		for _, ei := range order {
			key = fmt.Sprintf("%s|%d", key, ei)
			e := &b.Edges[ei]
			// FK-ish estimate: joining multiplies by target size over a
			// nominal domain of the larger side.
			target := e.A
			if b.Insts[e.A].Queries.Contains(qid) && rows(e.A) >= rows(e.B) {
				target = e.B
			}
			size = size * rows(target) / maxf(rows(e.A), rows(e.B))
			if !seen[prefix{root, key}] {
				seen[prefix{root, key}] = true
				total += size
			}
		}
	}
	return total
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
