package engine

import (
	"time"

	"github.com/roulette-db/roulette/internal/admission"
	"github.com/roulette-db/roulette/internal/metrics"
	"github.com/roulette-db/roulette/internal/obs"
)

// This file is the session's one scan selector and the deadline shedding
// that runs before it. Both run under the session mutex in the gaps between
// episodes; they read and write arrays and allocate nothing.
//
// Selection is the paper's order (§5.2): the incomplete scan of lowest rank
// (dimension tables first, for pruning), round-robin within a rank. A
// query's tenant and deadline never reorder scans; a deadline only sheds
// its query once it has passed.

// SubmitMeta carries the admission metadata of one live submission.
// The zero value is a default-tenant, no-deadline submission.
type SubmitMeta struct {
	// Tenant names the query's tenant in its mid-flight ShedError and in
	// its submit and shed trace events. Empty is the default tenant.
	Tenant string
	// Weight is inert: the selector ignores it. It stays because
	// benchmark/layers.go sets it.
	Weight float64
	// Deadline, when non-zero, is the query's absolute deadline: once it
	// passes, the query is shed with an admission.ShedError instead of
	// consuming more work.
	Deadline time.Time
}

// registerMetaLocked records a query's tenant and deadline; activateLocked
// calls it as the query starts scanning.
func (s *Session) registerMetaLocked(qid int, m SubmitMeta) {
	s.qTenant[qid] = m.Tenant
	if !m.Deadline.IsZero() {
		ns := m.Deadline.UnixNano()
		s.qDeadline[qid] = ns
		s.deadlineLive++
		if s.nextDeadline == 0 || ns < s.nextDeadline {
			s.nextDeadline = ns
		}
	} else {
		s.qDeadline[qid] = 0
	}
}

// releaseMetaLocked drops a query's deadline at retirement.
func (s *Session) releaseMetaLocked(qid int) {
	if s.qDeadline[qid] != 0 {
		s.qDeadline[qid] = 0
		if s.deadlineLive > 0 {
			s.deadlineLive--
		}
	}
}

// pickScanLocked is the scan selector: it sheds expired-deadline queries,
// then returns the incomplete scan of lowest rank, breaking ties
// round-robin. Returns -1 when no scan is runnable.
func (s *Session) pickScanLocked() int {
	if s.deadlineLive > 0 {
		if nowNs := time.Now().UnixNano(); s.nextDeadline != 0 && nowNs >= s.nextDeadline {
			s.shedExpiredLocked(nowNs)
		}
	}
	best, n := -1, len(s.scans)
	for off := 0; off < n; off++ {
		// Starting at the round-robin cursor makes equal ranks rotate.
		i := (s.rrCursor + off) % n
		st := s.scans[i]
		if st.done() {
			continue
		}
		if best == -1 || st.rank < s.scans[best].rank {
			best = i
		}
	}
	if best >= 0 {
		s.rrCursor = best + 1
	}
	return best
}

// shedExpiredLocked fails every live query whose deadline has passed with a
// typed ShedError (failLocked): its bits leave the scan active sets, it
// retires as soon as its in-flight episodes drain, and its partial count
// stays available. The next-deadline cursor is recomputed over survivors.
func (s *Session) shedExpiredLocked(nowNs int64) {
	next := int64(0)
	for qid := 0; qid < s.b.QCap(); qid++ {
		d := s.qDeadline[qid]
		if d == 0 {
			continue
		}
		if d > nowNs {
			if next == 0 || d < next {
				next = d
			}
			continue
		}
		tenant := s.qTenant[qid]
		if !s.failLocked(qid, &admission.ShedError{Tenant: tenant, Deadline: time.Unix(0, d)}) {
			continue
		}
		s.shedCount++
		metrics.Default().DeadlineSheds.Add(1)
		s.recCtl(obs.KShed, int64(qid), 1, tenantHash(tenant), 0)
		s.maybeRetireLocked(qid)
	}
	s.nextDeadline = next
}
