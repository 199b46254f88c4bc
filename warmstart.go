package roulette

import (
	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/metrics"
	"github.com/roulette-db/roulette/internal/policy"
	"github.com/roulette-db/roulette/internal/policystore"
	"github.com/roulette-db/roulette/internal/qlearn"
	"github.com/roulette-db/roulette/internal/query"
)

// PolicyStore caches learned Q-table snapshots keyed by workload template
// signature, so recurring workloads warm-start from earlier runs instead
// of re-exploring from scratch. A store can back any number of batches
// and streams (it is safe for concurrent use), lives in memory by
// default, and optionally persists to a single file.
//
// Attach one via Options.PolicyStore. It only affects the learned policy
// (PolicyLearned); other policies ignore it. A cold lookup changes
// nothing — a run with an empty store behaves exactly like a run without
// one.
type PolicyStore = policystore.Cache

// PolicyStoreOptions configure NewPolicyStore.
type PolicyStoreOptions = policystore.Options

// PolicyStoreStats is a PolicyStore counter snapshot.
type PolicyStoreStats = policystore.Stats

// NewPolicyStore opens a policy store. With a Path set, an existing
// policy file is loaded (a missing file is a cold start; a corrupted one
// is reported and ignored, leaving a usable empty store).
func NewPolicyStore(opts PolicyStoreOptions) (*PolicyStore, error) {
	return policystore.Open(opts)
}

// warmLink ties a session's learned policy to the PolicyStore it warm-starts
// from and exports into. A nil link (no store, or a policy that does not
// learn) does nothing, so a store-less run and a run over an empty store
// take the same steps.
type warmLink struct {
	store   *PolicyStore
	learned *qlearn.Learned
}

func newWarmLink(store *PolicyStore, pol policy.Policy) *warmLink {
	learned, ok := pol.(*qlearn.Learned)
	if store == nil || !ok {
		return nil
	}
	return &warmLink{store: store, learned: learned}
}

// importOnAdmit folds the store's snapshot for the template set of the live
// queries into the policy, before the n queries just admitted burn episodes
// exploring. A miss changes nothing. live is the whole batch for a
// one-shot run (deferred Admissions included) and the session's admitted set
// for a stream; the caller holds off episodes (an unstarted session, or
// Session.WithCompiled).
func (l *warmLink) importOnAdmit(b *query.Batch, ctx *exec.Context, live bitset.Set, n int) {
	if l == nil {
		return
	}
	if l.store.Import(l.learned, b, ctx, live) > 0 {
		metrics.Default().WarmStartedQueries.Add(int64(n))
	}
}

// export snapshots what the policy has learned about the live queries into
// the store, returning the number of Q-states captured.
func (l *warmLink) export(b *query.Batch, ctx *exec.Context, live bitset.Set) int {
	return l.store.Export(l.learned, b, ctx, live)
}
