package engine

import (
	"time"

	"github.com/roulette-db/roulette/internal/admission"
	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/metrics"
	"github.com/roulette-db/roulette/internal/obs"
)

// This file is the session's one scan selector: weighted-fair episode
// selection across tenants, priority lanes with deadline urgency, mid-flight
// shedding of queries whose deadline expired, and the per-tenant starvation
// watchdog. Everything here runs under the session mutex in the gaps between
// episodes — the episode hot path is untouched and the accounting is array
// reads/writes with no allocation.
//
// Scheduling model: each query carries a tenant slot, a priority lane and
// an optional absolute deadline (SubmitMeta; a compiled batch's queries carry
// the zero value). Episodes charge every active query's tenant cost/weight
// virtual time; scan selection picks, among incomplete scans, the one with
// the best (lane desc, tenant virtual time asc, rank asc) key, rotating among
// equals. With a single tenant and no priorities lane and virtual time tie,
// which leaves the paper's order (§5.2): lowest rank first, round-robin
// within a rank.

// SubmitMeta carries the admission metadata of one live submission.
// The zero value is a default-tenant, no-deadline, priority-0 submission.
type SubmitMeta struct {
	// Tenant keys weighted-fair scheduling and the starvation watchdog.
	// Empty is the default tenant.
	Tenant string
	// Weight is the tenant's fair-share weight; <= 0 means 1. The weight
	// of a tenant is set by its first live submission and stable after.
	Weight float64
	// Priority is the query's scheduling lane; higher lanes are always
	// served before lower ones. 0 is the default lane.
	Priority int
	// Deadline, when non-zero, is the query's absolute deadline: episodes
	// near it get an urgency boost, and once it passes the query is shed
	// with an admission.ShedError instead of consuming more work.
	Deadline time.Time
}

// tenantState is one tenant's scheduler accounting.
type tenantState struct {
	name        string
	weight      float64
	vtime       float64 // weighted service received (cost units / weight)
	lastService int64   // episode counter value at last service
	live        int     // admitted, not yet retired queries
	starved     bool    // watchdog-boosted until next service
}

// Scheduling boosts, in lane units. Priorities are user lanes; urgency
// outranks any user lane; a starvation boost outranks urgency so a starved
// tenant is always served next.
const (
	laneUrgent  = 1 << 16
	laneStarved = 1 << 20
)

// Scheduler thresholds: a query within defaultDeadlineUrgency of its
// deadline schedules in the urgent lane, and a tenant with live queries
// unserved for more than defaultStarveEpisodes episodes is boosted above
// every lane. Sessions copy them into deadlineUrgency and starveEpisodes,
// which only the package's tests overwrite.
const (
	defaultDeadlineUrgency = time.Millisecond
	defaultStarveEpisodes  = 512
)

// initSchedLocked sizes the tenant scheduler.
func (s *Session) initSchedLocked(qcap int) {
	s.tenantIDs = map[string]int{"": 0}
	s.tenants = []tenantState{{name: "", weight: 1}}
	s.qTenant = make([]int32, qcap)
	s.qPriority = make([]int32, qcap)
	s.qDeadline = make([]int64, qcap)
	s.qUrgent = bitset.New(qcap)
	s.deadlineUrgency, s.starveEpisodes = defaultDeadlineUrgency, defaultStarveEpisodes
}

// registerMetaLocked records a query's scheduling metadata; activateLocked
// calls it as the query starts scanning.
func (s *Session) registerMetaLocked(qid int, m SubmitMeta) {
	tid, ok := s.tenantIDs[m.Tenant]
	if !ok {
		tid = len(s.tenants)
		w := m.Weight
		if w <= 0 {
			w = 1
		}
		s.tenants = append(s.tenants, tenantState{name: m.Tenant, weight: w})
		s.tenantIDs[m.Tenant] = tid
	}
	ts := &s.tenants[tid]
	if ts.live == 0 {
		// A tenant (re)joining service starts at the current virtual time
		// floor: it competes fairly from now on instead of cashing in the
		// service it never requested while idle.
		if floor := s.minActiveVtimeLocked(); ts.vtime < floor {
			ts.vtime = floor
		}
		ts.lastService = s.episode
		ts.starved = false
	}
	ts.live++
	s.qTenant[qid] = int32(tid)
	s.qPriority[qid] = int32(m.Priority)
	if m.Priority != 0 {
		s.laneLive++
	}
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

// minActiveVtimeLocked returns the smallest virtual time among tenants with
// live queries (0 when none).
func (s *Session) minActiveVtimeLocked() float64 {
	min, found := 0.0, false
	for i := range s.tenants {
		ts := &s.tenants[i]
		if ts.live == 0 {
			continue
		}
		if !found || ts.vtime < min {
			min, found = ts.vtime, true
		}
	}
	return min
}

// chargeServiceLocked charges one episode's service to a query's tenant
// (called from takeVectorLocked for every active query; n is the vector
// size). Array indexing only — no allocation, no map access.
func (s *Session) chargeServiceLocked(qid, n int) {
	ts := &s.tenants[s.qTenant[qid]]
	ts.vtime += float64(n) / ts.weight
	ts.lastService = s.episode
	ts.starved = false
}

// releaseMetaLocked drops a query's scheduling metadata at retirement.
func (s *Session) releaseMetaLocked(qid int) {
	ts := &s.tenants[s.qTenant[qid]]
	if ts.live > 0 {
		ts.live--
	}
	if s.qDeadline[qid] != 0 {
		s.qDeadline[qid] = 0
		if s.deadlineLive > 0 {
			s.deadlineLive--
		}
	}
	if s.qPriority[qid] != 0 {
		s.qPriority[qid] = 0
		s.laneLive--
	}
	s.qUrgent.Remove(qid)
}

// pickScanLocked is the scan selector: it sheds expired-deadline queries,
// runs the starvation watchdog, and returns the incomplete scan with the
// best (lane desc, tenant vtime asc, rank asc) key, breaking ties
// round-robin. Returns -1 when no scan is runnable.
func (s *Session) pickScanLocked() int {
	var nowNs int64
	if s.deadlineLive > 0 {
		nowNs = time.Now().UnixNano()
		if s.nextDeadline != 0 && nowNs >= s.nextDeadline {
			s.shedExpiredLocked(nowNs)
		}
	}
	if s.episode&63 == 0 {
		s.starvationSweepLocked()
	}

	// One tenant, no user lane, no deadline: every scan's lane and virtual
	// time tie (a starvation boost would lift them all alike), so the walk
	// over each scan's active queries is skipped and rank alone decides.
	uniform := len(s.tenants) == 1 && s.laneLive == 0 && s.deadlineLive == 0

	best, n := -1, len(s.scans)
	var bestLane int64
	var bestV float64
	var bestRank int
	urgentBefore := int64(0)
	if nowNs != 0 {
		urgentBefore = nowNs + int64(s.deadlineUrgency)
	}
	for off := 0; off < n; off++ {
		// Starting at the round-robin cursor makes equal keys rotate.
		i := (s.rrCursor + off) % n
		st := s.scans[i]
		if st.done() {
			continue
		}
		var lane int64
		var minV float64
		if !uniform {
			lane, minV = s.scanKeyLocked(st, urgentBefore)
		}
		// Key order: lane (priority + boosts), tenant virtual time, scan
		// rank. With one tenant every vtime ties, so rank (dimension tables
		// first, pruning order §5.2) decides; with several, fair-share
		// dominates rank so a tenant cannot be crowded out by the shape of
		// another tenant's join graphs.
		if best == -1 || lane > bestLane ||
			(lane == bestLane && (minV < bestV ||
				(minV == bestV && st.rank < bestRank))) {
			best, bestLane, bestV, bestRank = i, lane, minV, st.rank
		}
	}
	if best >= 0 {
		s.rrCursor = best + 1
	}
	return best
}

// scanKeyLocked computes one scan's scheduling key over its active queries:
// the maximum boosted lane and the minimum tenant virtual time.
func (s *Session) scanKeyLocked(st *scanState, urgentBefore int64) (lane int64, minV float64) {
	lane, minV = 0, -1
	first := true
	st.active.ForEach(func(qid int) {
		ts := &s.tenants[s.qTenant[qid]]
		l := int64(s.qPriority[qid])
		if ts.starved {
			l += laneStarved
		}
		if d := s.qDeadline[qid]; d != 0 && urgentBefore != 0 && d <= urgentBefore {
			l += laneUrgent
			if !s.qUrgent.Contains(qid) {
				// First time this query crosses into the urgency window:
				// record the promotion once (the lane boost itself recurs
				// every selection until the query drains or is shed).
				s.qUrgent.Add(qid)
				s.recCtl(obs.KLanePromote, int64(qid), d, tenantHash(ts.name), 0)
			}
		}
		if first || l > lane {
			lane = l
		}
		if first || ts.vtime < minV {
			minV = ts.vtime
		}
		first = false
	})
	return lane, minV
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
		ts := &s.tenants[s.qTenant[qid]]
		if !s.failLocked(qid, &admission.ShedError{Tenant: ts.name, Deadline: time.Unix(0, d)}) {
			continue
		}
		s.shedCount++
		metrics.Default().DeadlineSheds.Add(1)
		s.recCtl(obs.KShed, int64(qid), 1, tenantHash(ts.name), 0)
		s.maybeRetireLocked(qid)
	}
	s.nextDeadline = next
}

// starvationSweepLocked boosts tenants that hold live queries but have not
// been scheduled for starveEpisodes episodes. A starved tenant's scans
// jump every lane until the tenant is next served (priority inversion
// guard: sustained high-priority load cannot freeze a low-priority tenant
// out forever).
func (s *Session) starvationSweepLocked() {
	thresh := s.starveEpisodes
	for i := range s.tenants {
		ts := &s.tenants[i]
		if ts.live > 0 && !ts.starved && s.episode-ts.lastService > thresh {
			ts.starved = true
			s.starveBoosts++
			metrics.Default().StarvationBoosts.Add(1)
		}
	}
}
