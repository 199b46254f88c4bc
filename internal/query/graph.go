package query

import "github.com/roulette-db/roulette/internal/bitset"

// Graph is an immutable snapshot of a batch's join structure: the slices a
// worker's plan builder and probe operators walk on the episode hot path.
// The streaming engine publishes a fresh Graph (inside the executor's
// context view) whenever an admission or retirement changes the batch, so
// episodes never read the mutable Batch without the session mutex. The
// element structs are copied; the query bitsets inside them are shared with
// the batch under its copy-on-write contract (applyQuery/RetireQueries
// replace, never mutate, any set reachable from a snapshot).
type Graph struct {
	Insts     []Instance
	Edges     []Edge
	Residuals []Residual
}

// Snapshot returns an immutable Graph of the batch's current join
// structure. Caller must hold whatever lock serializes batch mutation.
func (b *Batch) Snapshot() Graph {
	return Graph{
		Insts:     append([]Instance(nil), b.Insts...),
		Edges:     append([]Edge(nil), b.Edges...),
		Residuals: append([]Residual(nil), b.Residuals...),
	}
}

// Candidates appends to dst the candidate edges for virtual vector (L, Q):
// edges with exactly one endpoint inside lineage L whose query set
// intersects Q (Definition 5 of the paper). Safe to call lock-free on a
// snapshot.
func (g *Graph) Candidates(dst []int, lineage uint64, q bitset.Set) []int {
	for i := range g.Edges {
		e := &g.Edges[i]
		aIn := lineage&(1<<e.A) != 0
		bIn := lineage&(1<<e.B) != 0
		if aIn == bIn {
			continue
		}
		if bitset.Intersects(q, e.Queries) {
			dst = append(dst, e.ID)
		}
	}
	return dst
}
