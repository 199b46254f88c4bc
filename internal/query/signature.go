package query

import "sort"

// Template signatures canonicalize a query's join-graph shape so that
// recurring queries — same relations, same join edges, same filter columns
// and kinds, regardless of alias names, clause order, positional query IDs
// or submission order — hash to the same 64-bit value. They are the keys of
// the cross-batch policy cache (DESIGN.md §13): a learned Q-table snapshot
// taken for one run of a template warm-starts every later run.
//
// Two tiers:
//
//   - TemplateSig ignores predicate constants: queries that differ only in
//     BETWEEN bounds or IN literals share a signature, because the routing
//     problem they pose to the learned policy is the same shape.
//   - QuerySig includes constants and the aggregate shape. It is the
//     tie-breaker that orders same-template queries deterministically when
//     a set of queries is mapped onto canonical template-relative indices.
//
// Both reuse the FNV-1a folding idiom of the episode plan signatures
// (internal/exec/episode.go).

const (
	sigOffset uint64 = 14695981039346656037
	sigPrime  uint64 = 1099511628211
)

// sigFold folds one 64-bit value into an FNV-1a accumulator byte-wise.
func sigFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * sigPrime
		v >>= 8
	}
	return h
}

// sigStr folds a string (length-prefixed, so concatenations cannot collide).
func sigStr(h uint64, s string) uint64 {
	h = sigFold(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * sigPrime
	}
	return h
}

// sigSetFold folds a multiset of component hashes order-independently:
// sort, then fold sequentially. The count is folded first so {h} and
// {h, h} differ.
func sigSetFold(h uint64, parts []uint64) uint64 {
	sort.Slice(parts, func(i, j int) bool { return parts[i] < parts[j] })
	h = sigFold(h, uint64(len(parts)))
	for _, p := range parts {
		h = sigFold(h, p)
	}
	return h
}

// tplRef is an alias resolved to its canonical (table, occurrence)
// identity — the k-th use of a table within one query is occurrence k,
// mirroring planQuery's instance interning, so the signature names the
// same shared instances the compiled batch will.
type tplRef struct {
	table string
	occ   int
}

// templateRefs resolves every relation of q to its (table, occ) identity,
// in Rels order (the order planQuery assigns occurrences in).
func templateRefs(q *Query) []tplRef {
	refs := make([]tplRef, len(q.Rels))
	occ := make(map[string]int, len(q.Rels))
	for i, r := range q.Rels {
		k := occ[r.Table]
		occ[r.Table] = k + 1
		refs[i] = tplRef{r.Table, k}
	}
	return refs
}

// sigRef folds a tplRef.
func sigRef(h uint64, r tplRef) uint64 {
	h = sigStr(h, r.table)
	return sigFold(h, uint64(r.occ))
}

// querySig computes the signature; withConsts selects QuerySig semantics.
func querySig(q *Query, withConsts bool) uint64 {
	refs := templateRefs(q)
	byAlias := func(alias string) tplRef {
		if i := q.aliasIdx(alias); i >= 0 {
			return refs[i]
		}
		// Unknown alias: Compile will reject the query; keep the hash total.
		return tplRef{alias, -1}
	}

	// Relations: order-independent multiset of (table, occ).
	parts := make([]uint64, 0, len(refs))
	for _, r := range refs {
		parts = append(parts, sigRef(sigOffset^1, r))
	}
	h := sigSetFold(sigOffset, parts)

	// Joins: each normalized exactly as planQuery normalizes edges — swap
	// endpoints so the smaller (table, occ, col) triple comes first — then
	// folded order-independently.
	parts = parts[:0]
	for _, j := range q.Joins {
		a, ac := byAlias(j.LeftAlias), j.LeftCol
		b, bc := byAlias(j.RightAlias), j.RightCol
		if a.table > b.table || (a.table == b.table && (a.occ > b.occ || (a.occ == b.occ && ac > bc))) {
			a, ac, b, bc = b, bc, a, ac
		}
		jh := sigRef(sigOffset^2, a)
		jh = sigStr(jh, ac)
		jh = sigRef(jh, b)
		jh = sigStr(jh, bc)
		parts = append(parts, jh)
	}
	h = sigSetFold(h, parts)

	// Filters: (table, occ, column, kind); constants only for QuerySig.
	parts = parts[:0]
	for _, f := range q.Filters {
		fh := sigRef(sigOffset^3, byAlias(f.Alias))
		fh = sigStr(fh, f.Col)
		fh = sigFold(fh, uint64(f.Kind))
		if withConsts {
			fh = sigFold(fh, uint64(f.Lo))
			fh = sigFold(fh, uint64(f.Hi))
			strs := append([]string(nil), f.Strs...)
			sort.Strings(strs)
			for _, s := range strs {
				fh = sigStr(fh, s)
			}
		}
		parts = append(parts, fh)
	}
	h = sigSetFold(h, parts)

	// Aggregate shape rides only on QuerySig: it is host-side and does not
	// change the routing problem, so templates stay aggregate-agnostic.
	if withConsts {
		ah := sigFold(sigOffset^4, uint64(q.Agg.Kind))
		if q.Agg.Kind.NeedsColumn() {
			ah = sigRef(ah, byAlias(q.Agg.Alias))
			ah = sigStr(ah, q.Agg.Col)
		}
		if q.Agg.GroupByCol != "" {
			ah = sigRef(ah, byAlias(q.Agg.GroupByAlias))
			ah = sigStr(ah, q.Agg.GroupByCol)
		}
		if q.Agg.Sorted {
			ah = sigFold(ah, 1)
		}
		h = sigFold(h, ah)
	}
	return h
}

// TemplateSig returns the canonical template signature of q: an FNV-1a
// hash over the normalized join-graph shape (relation identities as
// (table, occurrence) pairs, normalized join edges, filter columns and
// kinds) that is independent of alias names, clause order, positional
// query IDs and submission order. Predicate constants and the aggregate
// are excluded: queries differing only in those share a template.
func TemplateSig(q *Query) uint64 { return querySig(q, false) }

// QuerySig returns the constants-included signature of q. Same-template
// queries sort deterministically by QuerySig, which is how a set of live
// queries is assigned canonical template-relative indices.
func QuerySig(q *Query) uint64 { return querySig(q, true) }

// SetSig folds a multiset of per-query template signatures into one
// order-independent set signature — the policy-cache key for a batch or a
// live query set.
func SetSig(sigs []uint64) uint64 {
	parts := append([]uint64(nil), sigs...)
	return sigSetFold(sigOffset^5, parts)
}
