package roulette

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/engine"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/query"
)

// callerOrders returns typedWorkload's mixed-template batch in caller order,
// reversed and shuffled, each as a permutation of the original indexes.
func callerOrders() map[string][]int {
	n := len(typedWorkload())
	fwd := make([]int, n)
	rev := make([]int, n)
	for i := range fwd {
		fwd[i], rev[i] = i, n-1-i
	}
	return map[string][]int{"caller": fwd, "reversed": rev, "shuffled": rand.New(rand.NewSource(3)).Perm(n)}
}

// answerKey renders what a query's answer must be wherever it sits in the
// batch: tag, count, status and groups with their decoded labels.
func answerKey(qr QueryResult) string {
	return fmt.Sprintf("%s count=%d aborted=%v err=%v groups=%+v", qr.Tag, qr.Count, qr.Aborted, qr.Err, qr.Groups)
}

// TestBatchResultsFollowCallerOrder checks that numbering queries by shape
// stays invisible at the result boundary: the same mixed-template batch
// submitted in caller order, reversed and shuffled gives every query the
// same tag, count, status and string GROUP BY labels at its own position,
// with two queries admitted late by caller position.
func TestBatchResultsFollowCallerOrder(t *testing.T) {
	e := typedFixture(t)
	want := map[string]string{} // tag -> answer
	for name, perm := range callerOrders() {
		base := typedWorkload()
		qs := make([]*Query, len(perm))
		for i, p := range perm {
			qs[i] = base[p]
		}
		// The queries at original indexes 2 and 7 arrive late, named by
		// their position in this order.
		var late []int
		for i, p := range perm {
			if p == 2 || p == 7 {
				late = append(late, i)
			}
		}
		res, err := e.ExecuteBatch(qs, &Options{Seed: 5, VectorSize: 2,
			Admissions: []Admission{{AfterFraction: 0.5, Queries: late}}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, qr := range res.Queries {
			if qr.Tag != qs[i].Tag() {
				t.Fatalf("%s: position %d holds %q, want %q", name, i, qr.Tag, qs[i].Tag())
			}
			if st := res.Stats.Queries[i]; st.Tag != qr.Tag || st.Tuples != qr.Count {
				t.Errorf("%s: stats at position %d = %+v, result %s", name, i, st, answerKey(qr))
			}
			got := answerKey(qr)
			if w, ok := want[qr.Tag]; ok && w != got {
				t.Errorf("%s: %s, want %s", name, got, w)
			}
			want[qr.Tag] = got
		}
	}
}

// TestSessionResultsFollowCallerOrder drives the layer sequence the
// benchmark's traced batch uses — query.Compile, engine.NewSession, Run —
// and checks that Results.Counts and Results.Status are indexed by caller
// position in every order, that the batch renumbers at least one order, and
// that AdmitAt names queries by caller position.
func TestSessionResultsFollowCallerOrder(t *testing.T) {
	e := typedFixture(t)
	type answer struct {
		count     int64
		completed bool
	}
	want := map[string]answer{}
	renumbered := false
	for name, perm := range callerOrders() {
		base := typedWorkload()
		qs := make([]*query.Query, len(perm))
		late := -1
		for i, p := range perm {
			q, err := base[p].compileCopy(nil)
			if err != nil {
				t.Fatal(err)
			}
			qs[i] = q
			if p == 0 {
				late = i
			}
		}
		b, err := query.Compile(qs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range qs {
			if b.Pos(b.QIDAt(i)) != i {
				t.Fatalf("%s: Pos(QIDAt(%d)) = %d", name, i, b.Pos(b.QIDAt(i)))
			}
			if b.QIDAt(i) != i {
				renumbered = true
			}
		}
		s, err := engine.NewSession(b, e.db, engine.Config{
			Exec:    exec.DefaultOptions(),
			Workers: 1,
			AdmitAt: []engine.AdmitEvent{{AfterVectors: 1, Inst: 0, QIDs: []int{late}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.WithCompiled(func(b *query.Batch, _ *exec.Context, admitted bitset.Set) {
			for i := range qs {
				if got := admitted.Contains(b.QIDAt(i)); got != (i != late) {
					t.Errorf("%s: position %d admitted at start = %v", name, i, got)
				}
			}
		})
		r, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			if tag := b.Queries[b.QIDAt(i)].Tag; tag != q.Tag {
				t.Fatalf("%s: position %d compiled as %q, want %q", name, i, tag, q.Tag)
			}
			got := answer{r.Counts[i], r.Status[i].Completed}
			if w, ok := want[q.Tag]; ok && !reflect.DeepEqual(w, got) {
				t.Errorf("%s: %s = %+v, want %+v", name, q.Tag, got, w)
			}
			want[q.Tag] = got
		}
	}
	if !renumbered {
		t.Fatal("no order was renumbered; the test checks nothing")
	}
}
