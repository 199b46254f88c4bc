// Package plan implements multi-step optimization (Algorithm 1 of the
// paper): the eddy's recursive construction of each episode's two global
// plans — the selection-phase chain and the join-phase tree — from policy
// decisions over virtual vectors (lineage, query-set).
//
// The join-phase plan is a tree: a policy decision appends a probe operator
// for Q∩Q_o and, on divergence, a routing selection for Q−Q_o; null
// decisions append routers that ship a sub-expression's tuples to its
// queries' RouLette sources. Each probe node carries the decision's full
// MDP context (pre-state, successor candidate sets) so the executor can
// emit the log entries Q-learning bootstraps from. The package also
// performs the adaptive-projection analysis (§5.2): each node is annotated
// with the set of vID columns its input vector must carry, so the executor
// can shed the rest.
package plan

import (
	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/query"
)

// NodeKind discriminates join-phase plan nodes.
type NodeKind int

// Join-phase node kinds.
const (
	Input    NodeKind = iota // pseudo-root: the inserted source vector
	Probe                    // STeM probe over one edge
	RouteSel                 // routing selection: mask query bits, drop empty
	Router                   // ship tuples to the RouLette sources of Q
)

// Node is one join-phase plan operator. Children consume this node's
// output vector; the executor runs them in order (probe sub-plan before
// divergence sub-plan, bounding the pending-vector footprint, §3).
type Node struct {
	Kind   NodeKind
	EdgeID int          // Probe: the edge to probe
	Target query.InstID // Probe: the instance whose STeM is probed

	// Q is the query set this node's OUTPUT serves: Q∩Q_o for probes,
	// Q−Q_o for routing selections, the routed set for routers.
	Q bitset.Set
	// Lo and Hi bound Q's words: every bit of Q lies in words [Lo, Hi), so
	// the executor's query-set loops for this node visit only those words.
	Lo, Hi int

	// Decision context (Probe nodes): the MDP state the eddy chose this
	// operator in, and the successor states' candidate sets, which the
	// Q-learning update bootstraps through (Algorithm 2 lines 7 and 10).
	Lineage     uint64     // pre-decision lineage L
	StateQ      bitset.Set // pre-decision query set Q
	Cands       []int      // cand(L, Q)
	MainLineage uint64     // L ∪ {o}
	MainCands   []int      // cand(L∪{o}, Q∩Q_o)
	DivCands    []int      // cand(L, Q−Q_o); nil without divergence

	// Div is the sibling routing selection created by a diverging decision;
	// the executor charges its output size to this probe's log entry.
	Div *Node

	// Keep is the instance bitmask of vID columns this node's input vector
	// must carry (adaptive projections).
	Keep uint64

	Children []*Node
}

// RequiredInsts reports, per query, the instances whose vIDs the host-side
// consumer needs. Routers keep only those columns.
type RequiredInsts func(qid int) uint64

// BuildJoin runs multi-step optimization for the join phase of one episode:
// a vector of source tuples annotated with query set q. It reads only the
// immutable Graph snapshot, so workers call it lock-free. It returns the
// Input pseudo-root, whose children process the vector after STeM
// insertion.
func BuildJoin(g *query.Graph, pol policy.Policy, source query.InstID, q bitset.Set, req RequiredInsts) *Node {
	root := &Node{Kind: Input, Lineage: 1 << source, Q: q.Clone()}
	buildRec(g, pol, root, source, 1<<source, q.Clone())
	annotateKeep(g, root, req)
	return root
}

// buildRec is MULTI_STEP_REC: it expands node (whose output has virtual
// vector (lineage, q)) until every query receives a router. It returns
// cand(lineage, q) so the caller can record successor candidates.
func buildRec(g *query.Graph, pol policy.Policy, node *Node, source query.InstID, lineage uint64, q bitset.Set) []int {
	cands := g.Candidates(nil, lineage, q)
	if len(cands) == 0 {
		node.Children = append(node.Children, &Node{Kind: Router, Lineage: lineage, Q: q})
		return cands
	}
	choice := pol.ChooseJoin(source, lineage, q, cands)
	e := &g.Edges[cands[choice]]
	target := e.A
	if lineage&(1<<e.A) != 0 {
		target = e.B
	}

	qMain := bitset.And(q, e.Queries)
	qDiv := bitset.AndNot(q, e.Queries)

	main := &Node{
		Kind: Probe, EdgeID: e.ID, Target: target,
		Q:       qMain,
		Lineage: lineage, StateQ: q, Cands: cands,
		MainLineage: lineage | 1<<target,
	}
	node.Children = append(node.Children, main)
	main.MainCands = buildRec(g, pol, main, source, main.MainLineage, qMain)

	if !qDiv.Empty() {
		div := &Node{Kind: RouteSel, Lineage: lineage, Q: qDiv}
		node.Children = append(node.Children, div)
		main.Div = div
		main.DivCands = buildRec(g, pol, div, source, lineage, qDiv)
	}
	return cands
}

// annotateKeep computes, bottom-up, the vID columns each node's input
// vector must carry: the union of the children's needs plus, for probes,
// the lineage-side join-key column's instance, plus any endpoint of a
// pending residual predicate (cycle-closing joins are evaluated at the
// probe that completes both endpoints, so the earlier endpoint's vID must
// survive until then). The same walk fills each node's [Lo, Hi) word range.
func annotateKeep(g *query.Graph, n *Node, req RequiredInsts) uint64 {
	n.Lo, n.Hi = n.Q.Span()
	switch n.Kind {
	case Router:
		var keep uint64
		n.Q.ForEach(func(qid int) { keep |= req(qid) })
		keep &= n.Lineage
		n.Keep = keep
		return keep
	case Probe:
		var childKeep uint64
		for _, c := range n.Children {
			childKeep |= annotateKeep(g, c, req)
		}
		e := &g.Edges[n.EdgeID]
		src := e.A
		if n.Target == e.A {
			src = e.B
		}
		keep := childKeep
		keep |= 1 << src // the probe reads its key via src's vID
		// Residuals with an endpoint inside the input lineage and the
		// partner still outside it: the partner either arrives with this
		// probe (evaluated here, needs the in-lineage endpoint's vID) or
		// later (the endpoint must survive until then).
		keep |= residualKeep(g, n.StateQ, n.Lineage)
		keep &^= 1 << n.Target // produced by the probe, not required upstream
		keep &= n.Lineage
		n.Keep = keep
		return keep
	default: // Input, RouteSel: input lineage equals output lineage
		var keep uint64
		for _, c := range n.Children {
			keep |= annotateKeep(g, c, req)
		}
		keep |= residualKeep(g, n.Q, n.Lineage)
		keep &= n.Lineage
		n.Keep = keep
		return keep
	}
}

// residualKeep returns the instances that must stay projected because a
// residual predicate of some query in q has its other endpoint outside
// lineage (not yet applicable).
func residualKeep(g *query.Graph, q bitset.Set, lineage uint64) uint64 {
	var keep uint64
	for _, r := range g.Residuals {
		if !q.Contains(r.QID) {
			continue
		}
		aIn := lineage&(1<<r.A) != 0
		bIn := lineage&(1<<r.B) != 0
		if aIn && !bIn {
			keep |= 1 << r.A
		}
		if bIn && !aIn {
			keep |= 1 << r.B
		}
	}
	return keep
}

// CountRouters returns how many router nodes serve each query: the
// correctness invariant of Algorithm 1 is that every query in the episode's
// active set is routed exactly once.
func CountRouters(root *Node, nQueries int) []int {
	counts := make([]int, nQueries)
	var walk func(*Node)
	walk = func(n *Node) {
		if n.Kind == Router {
			n.Q.ForEach(func(qid int) { counts[qid]++ })
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	return counts
}

// Size returns the number of real operators (probes, routing selections,
// routers) in the plan.
func Size(root *Node) int {
	n := 0
	var walk func(*Node)
	walk = func(nd *Node) {
		if nd.Kind != Input {
			n++
		}
		for _, c := range nd.Children {
			walk(c)
		}
	}
	walk(root)
	return n
}

// SelOpInfo describes one selection-phase operator available for ordering:
// a grouped filter or a symmetric-join prune filter.
type SelOpInfo struct {
	ID      int // operator ID within the session's selection-op space
	Bit     int // stable bit position within the instance's op list
	Queries bitset.Set
}

// SelStep is one planned selection-phase operator application, with the
// decision context for the policy log.
type SelStep struct {
	Op      SelOpInfo
	Applied uint64 // mask of Bit positions applied before this step
	Cands   []int  // candidate op IDs at this decision

	NextApplied uint64 // mask after this step
	NextCands   []int  // candidate op IDs at the successor state
}

// BuildSel orders the selection-phase operators of one relation instance
// with policy decisions. ops lists every operator currently available on
// the instance; operators whose query sets do not intersect q are skipped
// (they cannot affect the vector).
func BuildSel(pol policy.Policy, inst query.InstID, q bitset.Set, ops []SelOpInfo) []SelStep {
	remaining := make([]SelOpInfo, 0, len(ops))
	for _, o := range ops {
		if bitset.Intersects(q, o.Queries) {
			remaining = append(remaining, o)
		}
	}
	var steps []SelStep
	var applied uint64
	for len(remaining) > 0 {
		cands := make([]int, len(remaining))
		for i, o := range remaining {
			cands[i] = o.ID
		}
		choice := pol.ChooseSel(inst, applied, q, cands)
		op := remaining[choice]
		next := applied | 1<<uint(op.Bit)
		steps = append(steps, SelStep{Op: op, Applied: applied, Cands: cands, NextApplied: next})
		applied = next
		remaining = append(remaining[:choice], remaining[choice+1:]...)
	}
	// Fill successor candidate sets: each step's successor candidates are
	// the next step's candidates (empty for the last step).
	for i := range steps {
		if i+1 < len(steps) {
			steps[i].NextCands = steps[i+1].Cands
		}
	}
	return steps
}
