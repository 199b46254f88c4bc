package engine

import (
	"time"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/metrics"
	"github.com/roulette-db/roulette/internal/obs"
	"github.com/roulette-db/roulette/internal/query"
)

// This file is the session lifecycle around the episode: the worker's
// episode-pick loop, live admission of queries into a running worker pool,
// per-query retirement the moment a query's episodes drain, and the
// concurrent garbage collector that — while the session is open — sweeps
// retired queries out of STeM entries, grouped filters, the Q-table and the
// query-ID space.
//
// Synchronization model (DESIGN.md §12): there is no stop-the-world gate.
// Mutations happen under the session mutex and become visible to episodes
// through a published context view (exec.PublishView, one atomic pointer
// store); episodes load the view once at their start, so they always run
// against an immutable snapshot. STeM maintenance runs concurrently with
// episodes inserting into and probing the same STeM: AddIndex inside
// ApplyExtend under the session mutex, the GC's sweeps and compactions
// with it released (gc.sweeping keeps a second quantum out); inserts stage
// their entries and tables are replaced, never changed (package stem).
//
// A query's drain is its grace period. Every per-query access an episode
// makes is keyed by a bit of its own Active set, which takeVectorLocked
// clones under the session mutex: tuple words start as Active and are only
// ANDed after that; routers index Sources by tuple bits, and a plan node's
// query set (and so ReqInsts' read of Sources) is a subset of Active; prune
// eligibility sets may name other queries, but only clear bits. A query
// retires only when no in-flight episode carries its bit
// (outstanding[qid] == 0); its source and ID are released at the end of the
// GC pass that swept it, after every STeM's sweep and after it left the
// batch, the filters and the policy; and a reused ID is activated only after
// ApplyExtend has published the view that holds its new query, which every
// later episode loads. So at release no in-flight episode can reach the ID,
// and Go's garbage collector keeps alive whatever an older view still
// points to.

// retirePruner is the optional policy interface for reclaiming learned
// state of retired queries (qlearn.Learned implements it).
type retirePruner interface{ PruneRetired(retired bitset.Set) int }

// SubmitLiveMeta merges one query into the session, before or during its
// run, without blocking on a worker barrier: the batch and execution
// context are extended under the session mutex alone, the extended view is
// published (one atomic store), and the query is activated on its
// instances' scans (rescanning each relation from the current circular-scan
// position, so it reuses every STeM entry built so far and re-ingests only
// what it has not seen). The one structural STeM op an admission can need —
// indexing a new key column on an existing STeM — runs inside ApplyExtend,
// before the view is published, without waiting for the instance's
// in-flight episodes. Admission sizes nothing in the STeMs: their chunks and
// tables follow the entries built into them. The meta carries the query's
// tenant, fairness weight, priority lane and deadline for the tenant-aware
// scheduler (see sched.go). It returns the assigned query ID.
//
// Admission control (budget, rate limits) still belongs in front of this
// call: admission does O(batch) setup work under the mutex, so overload
// rejections should stay cheaper than it.
func (s *Session) SubmitLiveMeta(q *query.Query, m SubmitMeta) (int, error) {
	s.mu.Lock()
	qid, d, err := s.b.Extend(q)
	if err != nil {
		s.mu.Unlock()
		return 0, err
	}
	if err := s.ctx.ApplyExtend(d); err != nil {
		// The context is untouched (ApplyExtend validates before mutating);
		// take the query's additions back out of the batch so instance and
		// operator IDs stay aligned with the executor's arrays.
		s.b.RollbackExtend(d)
		s.mu.Unlock()
		return 0, err
	}
	s.addScansLocked()
	s.recCtl(obs.KSubmit, int64(qid), 0, tenantHash(m.Tenant), 0)
	s.activateLocked(qid, m, time.Now().UnixNano())
	cbs := s.takeCallbacksLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.runCallbacks(cbs)
	return qid, nil
}

// CancelQuery fails one in-flight query with the given cause (failLocked).
// Only that query is affected: its bits leave the scan active sets, it
// retires as soon as its in-flight episodes drain, and its count so far
// remains available as a partial result. The rest of the stream is
// untouched. On a query that already failed or retired it is a no-op.
func (s *Session) CancelQuery(qid int, cause error) {
	s.mu.Lock()
	if qid < 0 || qid >= s.b.QCap() || !s.failLocked(qid, cause) {
		s.mu.Unlock()
		return
	}
	s.maybeRetireLocked(qid)
	cbs := s.takeCallbacksLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.runCallbacks(cbs)
}

// CloseSubmit declares the session's input finished: once every admitted
// query retires, the worker pool exits and RunContext returns. A closed
// session starts no new collection pass (nothing will reuse what a pass
// frees), so stop submitting first: SubmitLiveMeta still works until the pool
// exits, but its query IDs are no longer recycled.
func (s *Session) CloseSubmit() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// FreeQuerySlots reports how many query IDs are available for SubmitLiveMeta
// (capacity minus live and not-yet-reclaimed queries).
func (s *Session) FreeQuerySlots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Free()
}

// maybeRetireLocked retires qid if it is terminal: admitted, every episode
// carrying its bit finished, and either drained (exact result) or failed
// (partial result). Retirement publishes the query's status via OnRetire
// — immediately, not at session end — and queues the query for GC.
func (s *Session) maybeRetireLocked(qid int) {
	if !s.admitted.Contains(qid) || s.retired.Contains(qid) ||
		(s.gc.running && s.gc.active.Contains(qid)) {
		return
	}
	if s.outstanding[qid] != 0 {
		return
	}
	failed := s.failed.Contains(qid)
	if !failed && !s.queryDrainedLocked(qid) {
		return
	}
	s.retired.Add(qid)
	s.releaseMetaLocked(qid)
	completed := int64(1)
	if failed {
		completed = 0
	}
	s.recCtl(obs.KRetire, int64(qid), completed, 0, 0)
	st := QueryStatus{Completed: !failed, Err: s.failErr[qid]}
	if cb := s.cfg.OnRetire; cb != nil {
		// The callback reads the query's source (routed rows); GC must not
		// reclaim the query until it finishes, so mark it callback-pending.
		// gcQuantumLocked leaves pending queries out of its snapshot and
		// picks them up on a later pass.
		q := qid
		s.cbPending.Add(q)
		s.cbsQueued = append(s.cbsQueued, func() {
			cb(q, st)
			s.mu.Lock()
			s.cbPending.Remove(q)
			s.cond.Broadcast()
			s.mu.Unlock()
		})
	}
}

// takeCallbacksLocked hands the queued callbacks to the caller for
// execution outside the mutex, tracking them so GC cannot release a
// query's source while its retirement callback still reads it.
func (s *Session) takeCallbacksLocked() []func() {
	cbs := s.cbsQueued
	s.cbsQueued = nil
	s.cbsActive += len(cbs)
	if len(cbs) > 0 {
		s.recCtl(obs.KCallback, int64(len(cbs)), 0, 0, 0)
	}
	return cbs
}

// runCallbacks executes callbacks taken by takeCallbacksLocked and marks
// them done. Must be called without the session mutex.
func (s *Session) runCallbacks(cbs []func()) {
	if len(cbs) == 0 {
		return
	}
	for _, f := range cbs {
		f()
	}
	s.mu.Lock()
	s.cbsActive -= len(cbs)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// gcPendingLocked reports whether the garbage collector has work a worker
// can take up: a pass in progress whose STeM sweep no other worker is
// running or, while the session can still admit, retired queries awaiting
// a pass. A closed session only finishes the pass it is in: what a new
// pass would free, nothing is left to reuse, and a session born closed
// keeps every source and STeM entry readable after the run.
func (s *Session) gcPendingLocked() bool {
	// Queries whose retirement callback is still pending are not yet
	// eligible (the callback reads their source); they stay in retired
	// until the callback completes and broadcasts.
	return !s.gc.sweeping && (s.gc.running || (!s.closed && !s.retired.IsSubset(s.cbPending)))
}

// nextEpisode is a worker's scheduling loop: run pending retirement
// callbacks, hand out a vector when a scan has work (running a paced GC
// quantum first when reclamation is pending — GC is concurrent, not
// stop-the-world), make GC progress ungated when idle, and wait for
// submissions or peers' episodes otherwise. id is the calling worker, so the
// handed-out episode can be stamped as its open episode for introspection.
// Returns ok=false when the run is cancelled (the cooperative cancellation
// point) or the session is closed and fully drained.
func (s *Session) nextEpisode(id int) (exec.EpisodeInput, bool) {
	s.mu.Lock()
	for {
		if len(s.cbsQueued) > 0 {
			cbs := s.takeCallbacksLocked()
			s.mu.Unlock()
			s.runCallbacks(cbs)
			s.mu.Lock()
			continue
		}
		if s.runCtx.Err() != nil {
			s.mu.Unlock()
			return exec.EpisodeInput{}, false
		}
		s.fireAdmissionsLocked(false)
		if best := s.pickScanLocked(); best >= 0 {
			if s.gcPendingLocked() && s.episode-s.gcLastEp >= gcEvery {
				// Busy path: interleave one budgeted GC quantum every
				// gcEvery episodes so reclamation keeps pace with execution
				// while other workers' episodes stay in flight.
				s.gcLastEp = s.episode
				s.gcQuantumLocked()
				if s.scans[best].done() {
					continue // drained while the quantum ran
				}
			}
			in := s.takeVectorLocked(query.InstID(best))
			s.noteEpisodeLocked(id, in)
			s.mu.Unlock()
			return in, true
		}
		if len(s.cbsQueued) > 0 {
			// pickScanLocked may have shed expired-deadline queries and
			// queued their retirement callbacks; run them before blocking.
			continue
		}
		if s.gcPendingLocked() {
			s.gcQuantumLocked()
			continue
		}
		if len(s.pending) > 0 {
			// No scan is runnable, so no trigger instance will deliver another
			// vector: admit what is still waiting instead of deadlocking.
			s.fireAdmissionsLocked(true)
			continue
		}
		if s.closed && s.inFlight == 0 && s.cbsActive == 0 {
			s.cond.Broadcast() // wake peers so they observe the exit state
			s.mu.Unlock()
			return exec.EpisodeInput{}, false
		}
		s.cond.Wait()
	}
}

// gcQuantumLocked makes one unit of GC progress, concurrently with
// in-flight episodes: it sweeps one instance's STeM (stem.SweepIndex builds
// the ranges recorded since its last build and replaces every table
// holding a retired bit with a swept copy; a retired query's bit can never
// reappear, since retirement requires zero outstanding episodes, so no
// insert still carries it) and, when the STeM's entries became at least
// half dead, compacts it (stem.CompactLive). Both run under the STeM's own
// mutex beside that instance's inserts and probes, and the session mutex
// is released meanwhile: gc.sweeping keeps other workers from starting a
// quantum, and the end of the sweep wakes them. The quantum after the last
// instance runs the terminal reclamation step. Every call made while
// episodes are in flight counts one concurrent quantum, even one that finds
// nothing eligible.
func (s *Session) gcQuantumLocked() {
	if s.inFlight > 0 {
		metrics.Default().GCConcurrentQuanta.Add(1)
	}
	g := &s.gc
	if !g.running {
		g.active = s.retired.CopyInto(g.active)
		g.active.AndNotWith(s.cbPending) // callback-pending: not yet eligible
		if g.active.Empty() {
			return
		}
		s.retired.AndNotWith(g.active)
		g.running, g.inst = true, 0
	}
	if g.inst >= len(s.ctx.Stems) {
		s.gcFinishLocked()
		return
	}
	st, live := s.ctx.Stems[g.inst], -1
	g.sweeping = true
	s.mu.Unlock()
	dead := st.SweepIndex(g.active)
	if dead > 0 && 2*dead >= st.Len() {
		live = st.CompactLive()
	}
	s.mu.Lock()
	g.sweeping = false
	s.recCtl(obs.KGCQuantum, int64(g.inst), int64(dead), 0, 0)
	if live >= 0 {
		s.recCtl(obs.KGCCompact, int64(g.inst), int64(live), 0, 0)
	}
	g.inst++
	s.cond.Broadcast()
}

// gcFinishLocked completes a GC pass under the session mutex: the swept
// queries leave the batch's shared operator sets (grouped-filter predicates
// dropped, affected filters rebuilt, the shrunk view republished), the
// policy prunes Q-states referencing them, the session's per-query
// bookkeeping is cleared, and their sources and IDs are released for reuse.
// No in-flight episode can reach a released ID: none carried its bit when
// the query retired, and an episode reaches a query only through its own
// Active set (the drain rule in this file's header).
func (s *Session) gcFinishLocked() {
	g := &s.gc
	if cb := s.cfg.PolicySweep; cb != nil {
		// Last moment the learned state about the swept queries is still
		// addressable: the batch is intact and s.admitted still carries the
		// retiring IDs, so the callback can export policy priors before
		// RetireQueries/PruneRetired erase them.
		cb(s.b, s.ctx, s.admitted)
	}
	changed := s.b.RetireQueries(g.active)
	s.ctx.RebuildFilters(changed) // republishes the view
	if pr, ok := s.pol.(retirePruner); ok {
		pr.PruneRetired(g.active)
	}
	g.active.ForEach(func(qid int) {
		s.admitted.Remove(qid)
		s.failed.Remove(qid)
		s.failErr[qid] = nil
		s.outstanding[qid] = 0
		s.scansLeft[qid] = 0
		for _, sc := range s.scans {
			sc.doneQ.Remove(qid)
			sc.active.Remove(qid)
			sc.flight[qid] = 0
		}
		s.qEpisodes[qid], s.qElapsed[qid] = 0, 0
		s.qTenant[qid] = 0
		s.ctx.Sources[qid] = nil
		s.b.ReleaseQID(qid)
	})
	for i := range g.active {
		g.active[i] = 0
	}
	g.running = false
	s.cond.Broadcast()
}

// StemSnapshot returns the current per-instance STeM statistics (entries,
// traffic counters, estimated resident bytes). Unlike BatchStats it can be
// read while the session runs.
func (s *Session) StemSnapshot() []StemStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stemStatsLocked()
}

// stemStatsLocked is StemSnapshot for callers already holding the mutex.
func (s *Session) stemStatsLocked() []StemStats {
	out := make([]StemStats, len(s.b.Insts))
	for i := range out {
		is := &s.ctx.InstStats[i]
		out[i] = StemStats{
			Table:    s.b.Insts[i].Table,
			Entries:  int64(s.ctx.Stems[i].Len()),
			Inserts:  is.Inserts.Load(),
			Probes:   is.Probes.Load(),
			Matches:  is.Matches.Load(),
			EstBytes: s.ctx.Stems[i].EstBytes(),
		}
	}
	return out
}
