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
// Synchronization model (epoch-based; DESIGN.md §12): there is no
// stop-the-world gate. Mutations happen under the session mutex and become
// visible to episodes through a published context view (exec.PublishView,
// one atomic pointer store); episodes load the view once at their start,
// so they always run against an immutable snapshot. The few structural
// STeM mutations that cannot overlap in-flight INSERTS on the same
// instance (AddIndex, bucket growth, compaction) queue behind a per-
// instance fence and run when that instance's in-flight count hits zero —
// every other instance keeps executing. Frees of retired per-query state
// (sources, query-ID slots) are deferred through the session's epoch
// domain: they run only after every worker has passed the retiring
// generation, so no episode can dereference reclaimed state. STeM entry
// sweeping needs none of this — it is CAS-based and runs concurrently
// with inserts and probes.

// retirePruner is the optional policy interface for reclaiming learned
// state of retired queries (qlearn.Learned implements it).
type retirePruner interface{ PruneRetired(retired bitset.Set) int }

// SubmitLiveMeta merges one query into the running session without
// blocking on a worker barrier: the batch and execution context are
// extended under the session mutex alone, the extended view is published
// (one atomic store) and the epoch domain advanced, and the query is
// admitted on its instances' scans (rescanning each relation from the
// current circular-scan position, so it reuses every STeM entry built so
// far and re-ingests only what it has not seen). Structural STeM ops the
// admission needs (indexing a new key column on an existing STeM, regrowing
// compacted buckets) run inline when their instance has no episode in
// flight, and otherwise queue behind that instance's fence; activation then
// waits for the last such op, never for unrelated instances or episodes.
// The meta carries the query's tenant, fairness weight, priority lane and
// deadline for the tenant-aware scheduler (see sched.go). It returns the
// assigned query ID.
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
	ops, err := s.ctx.ApplyExtend(d)
	if err != nil {
		// The context is untouched (ApplyExtend validates before mutating);
		// take the query's additions back out of the batch so instance and
		// operator IDs stay aligned with the executor's arrays.
		s.b.RollbackExtend(d)
		s.mu.Unlock()
		return 0, err
	}
	s.addScansLocked()
	// The rescan re-ingests relations whose STeMs may have been compacted
	// to a fraction of the relation size; regrow their buckets up front so
	// insert chains stay short. Growth swaps the STeM's copy-on-write state,
	// so it fences like AddIndex.
	for _, inst := range s.b.QueryInsts(qid) {
		if s.ctx.Stems[inst].NeedsGrow(s.ctx.Tables[inst].NumRows()) {
			inst := inst
			ops = append(ops, exec.StemOp{Inst: inst, Apply: func() {
				s.ctx.Stems[inst].EnsureBuckets(s.ctx.Tables[inst].NumRows())
			}})
		}
	}
	// Publish-then-advance: ApplyExtend published the extended view; advance
	// the epoch so workers pinning from here on are known to see it.
	if s.dom != nil {
		s.recCtl(obs.KEpochAdvance, int64(s.dom.Advance()), 0, 0, 0)
	}
	act := &pendingActivation{qid: qid, meta: m, submitNs: time.Now().UnixNano()}
	for _, op := range ops {
		inst := int(op.Inst)
		if s.instFlight[inst] == 0 {
			// No in-flight insert on this instance; the scheduler cannot
			// start one while we hold the mutex, so run the op inline.
			op.Apply()
			continue
		}
		act.remaining++
		if !s.instFence[inst] {
			s.instFenceSince[inst] = act.submitNs
		}
		s.instFence[inst] = true
		s.instOps[inst] = append(s.instOps[inst], fenceOp{run: op.Apply, act: act})
		s.recCtl(obs.KFenceQueue, int64(inst), int64(qid), 0, 0)
	}
	s.recCtl(obs.KSubmit, int64(qid), int64(act.remaining), tenantHash(m.Tenant), 0)
	if act.remaining == 0 {
		s.activateLocked(act)
	}
	cbs := s.takeCallbacksLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.runCallbacks(cbs)
	return qid, nil
}

// CancelQuery marks one in-flight query failed with the given cause. Only
// that query is affected: its bits leave the scan active sets, it retires
// as soon as its in-flight episodes drain, and its count so far remains
// available as a partial result. The rest of the stream is untouched.
func (s *Session) CancelQuery(qid int, cause error) {
	s.mu.Lock()
	if qid < 0 || qid >= s.b.QCap() ||
		!s.admitted.Contains(qid) || s.failed.Contains(qid) ||
		s.retired.Contains(qid) || (s.gc.running && s.gc.active.Contains(qid)) {
		s.mu.Unlock()
		return
	}
	s.failed.Add(qid)
	s.failErr[qid] = cause
	for _, inst := range s.b.QueryInsts(qid) {
		s.scans[inst].active.Remove(qid)
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
// frees), so stop submitting first: SubmitLive still works until the pool
// exits, but its query IDs are no longer recycled.
func (s *Session) CloseSubmit() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// FreeQuerySlots reports how many query IDs are available for SubmitLive
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

// gcPendingLocked reports whether the garbage collector has work: a pass
// in progress or, while the session can still admit, retired queries
// awaiting one. A closed session only finishes the pass it is in: what a
// new pass would free, nothing is left to reuse, and a session born closed
// keeps every source and STeM entry readable after the run.
func (s *Session) gcPendingLocked() bool {
	// Queries whose retirement callback is still pending are not yet
	// eligible (the callback reads their source); they stay in retired
	// until the callback completes and broadcasts.
	return s.gc.running || (!s.closed && !s.retired.IsSubset(s.cbPending))
}

// nextEpisode is a worker's scheduling loop: run pending retirement
// callbacks and grace-period-expired reclamation, hand out a vector when a
// scan has work (running a paced GC quantum first when reclamation is
// pending — GC is concurrent, not stop-the-world), make GC progress ungated
// when idle, and wait for submissions or peers' episodes otherwise. id is
// the calling worker, so the handed-out episode can be stamped as its open
// episode for introspection. Returns ok=false when the run is cancelled
// (the cooperative cancellation point) or the session is closed and fully
// drained.
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
		if ready := s.dom.Ready(); len(ready) > 0 {
			// Deferred frees whose grace period elapsed (every worker passed
			// the retiring generation); they take s.mu themselves.
			s.mu.Unlock()
			for _, f := range ready {
				f()
			}
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
				if s.inFlight > 0 {
					metrics.Default().GCConcurrentQuanta.Add(1)
				}
				metrics.Default().EpochLag.Store(s.dom.Lag())
				s.gcQuantumLocked()
				if s.instFence[best] || s.scans[best].done() {
					continue // the quantum fenced or drained our pick
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
			if s.inFlight > 0 {
				metrics.Default().GCConcurrentQuanta.Add(1)
			}
			s.gcQuantumLocked()
			continue
		}
		if len(s.pending) > 0 {
			// No scan is runnable, so no trigger instance will deliver another
			// vector: admit what is still waiting instead of deadlocking.
			s.fireAdmissionsLocked(true)
			continue
		}
		if s.closed && s.inFlight == 0 && s.cbsActive == 0 && !s.dom.HasDeferred() {
			s.cond.Broadcast() // wake peers so they observe the exit state
			s.mu.Unlock()
			return exec.EpisodeInput{}, false
		}
		s.cond.Wait()
	}
}

// gcQuantumLocked makes one budgeted unit of GC progress, concurrently
// with in-flight episodes: SweepChunk clears retired bits with CAS loops
// that tolerate racing inserts and probes (a retired query's bit can never
// reappear — retirement requires zero outstanding episodes, so no insert
// still carries it). Each quantum sweeps up to gcChunkBudget STeM chunks;
// finishing an instance whose entries became at least half dead — or that
// holds none but keeps the buckets a submission regrew for a rescan the
// build rule then left unbuilt (stem.NeedsShrink) — compacts it — inline
// when the instance has no in-flight inserts, else queued
// behind its fence (compaction swaps the copy-on-write state, so it must
// not race an insert on the same instance). A queued compaction can fire
// at fence drain while a later pass is mid-sweep of the same instance;
// the cursor detects that through the STeM's compact generation and
// restarts the instance's sweep, because compaction repositions entries.
// Finishing the last instance runs the terminal reclamation step.
func (s *Session) gcQuantumLocked() {
	g := &s.gc
	if !g.running {
		g.active = s.retired.CopyInto(g.active)
		g.active.AndNotWith(s.cbPending) // callback-pending: not yet eligible
		if g.active.Empty() {
			return
		}
		s.retired.AndNotWith(g.active)
		g.running, g.inst, g.chunk, g.stemDead = true, 0, 0, 0
	}
	startInst, swept := g.inst, 0
	defer func() {
		s.recCtl(obs.KGCQuantum, int64(startInst), int64(swept), 0, 0)
	}()
	budget := gcChunkBudget
	for budget > 0 {
		if g.inst >= len(s.ctx.Stems) {
			s.gcFinishLocked()
			return
		}
		st := s.ctx.Stems[g.inst]
		if gen := st.CompactGen(); g.chunk == 0 {
			g.stemGen = gen
		} else if gen != g.stemGen {
			// A fenced CompactLive (queued by an earlier pass, run at fence
			// drain between quanta) repacked this instance mid-sweep. The
			// sweep cursor addresses entries by position, and compaction
			// moves live entries to new positions — some now below the
			// cursor, where this pass would never revisit their retired
			// bits, leaving stale bits to misattribute matches once the qid
			// is recycled. Positions are only meaningful within one compact
			// generation: restart the instance's sweep against the new
			// layout.
			g.chunk, g.stemDead, g.stemGen = 0, 0, gen
			s.recCtl(obs.KGCSweepRestart, int64(g.inst), int64(gen), 0, 0)
		}
		if g.chunk >= st.NumChunks() {
			if g.stemDead > 0 && 2*g.stemDead >= st.Len() || st.NeedsShrink() {
				if inst := g.inst; s.instFlight[inst] > 0 {
					if !s.instFence[inst] {
						s.instFenceSince[inst] = time.Now().UnixNano()
					}
					s.instFence[inst] = true
					s.instOps[inst] = append(s.instOps[inst], fenceOp{run: func() {
						s.ctx.Stems[inst].CompactLive()
					}})
					s.recCtl(obs.KGCCompact, int64(inst), 1, 0, 0)
				} else {
					st.CompactLive()
					s.recCtl(obs.KGCCompact, int64(g.inst), 0, 0, 0)
				}
				budget = 0 // a compaction consumes the quantum
			}
			g.inst++
			g.chunk, g.stemDead = 0, 0
			continue
		}
		g.stemDead += st.SweepChunk(g.chunk, g.active)
		g.chunk++
		swept++
		budget--
	}
}

// gcFinishLocked completes a GC pass in two stages. Stage one, under the
// session mutex, unpublishes the swept queries: they leave the batch's
// shared operator sets (grouped-filter predicates dropped, affected
// filters rebuilt, the shrunk view republished), the policy prunes
// Q-states referencing them, and the session's per-query bookkeeping is
// cleared. Stage two — releasing the sources and returning the query IDs
// to the free pool for reuse — is deferred through the epoch domain until
// every worker has passed the retiring generation, so no in-flight episode
// can dereference a reclaimed source or meet a recycled query ID.
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
	freed := g.active.IDs()
	for _, qid := range freed {
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
	}
	for i := range g.active {
		g.active[i] = 0
	}
	g.running = false
	if len(freed) > 0 {
		reclaim := func() {
			s.mu.Lock()
			for _, qid := range freed {
				s.ctx.Sources[qid] = nil
				s.b.ReleaseQID(qid)
			}
			s.recCtl(obs.KEpochRelease, int64(len(freed)), 0, 0, 0)
			s.cond.Broadcast()
			s.mu.Unlock()
		}
		if s.dom != nil {
			s.recCtl(obs.KEpochDefer, int64(s.dom.Current()), int64(len(freed)), 0, 0)
			// Defer records the current generation and advances the domain
			// itself: the free releases once every worker pinned before this
			// point — the set that could still hold the pre-retirement view —
			// has drained, even under a saturated pool that is never fully
			// unpinned. (RebuildFilters republished the shrunk view above, so
			// the publish-before-defer contract holds.)
			s.dom.Defer(reclaim)
		} else {
			// Pre-run GC (no worker pool yet): free immediately, but the
			// deferred closure takes s.mu, so run it after we release it.
			s.cbsQueued = append(s.cbsQueued, reclaim)
		}
	}
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
