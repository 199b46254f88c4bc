package engine

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"github.com/roulette-db/roulette/internal/bitset"
	"github.com/roulette-db/roulette/internal/catalog"
	"github.com/roulette-db/roulette/internal/exec"
	"github.com/roulette-db/roulette/internal/query"
	"github.com/roulette-db/roulette/internal/stem"
	"github.com/roulette-db/roulette/internal/storage"
)

// factD1 is a two-relation query fact ⋈ d1 over starDB, optionally with a
// range filter on fact.v.
func factD1(lo, hi int64) *query.Query {
	q := &query.Query{
		Rels:  []query.RelRef{{Table: "fact"}, {Table: "d1"}},
		Joins: []query.Join{{LeftAlias: "fact", LeftCol: "fk1", RightAlias: "d1", RightCol: "k"}},
	}
	if hi > lo {
		q.Filters = []query.Filter{{Alias: "fact", Col: "v", Lo: lo, Hi: hi}}
	}
	return q
}

// TestBuildRuleFiresAndStaysExact pins the build rule (DESIGN.md §10): a
// vector's tuples enter its STeM only for queries that still have another
// relation to scan, and the answers do not move.
func TestBuildRuleFiresAndStaysExact(t *testing.T) {
	// One worker over a star batch scans the dimensions first (RankScans),
	// so every fact vector is final for every query it carries: the fact
	// STeM must stay empty while the dimensions build.
	t.Run("batch", func(t *testing.T) {
		rng := rand.New(rand.NewSource(83))
		db := starDB(rng, 300, 30)
		qs := starQueries(rng, 8)
		opt := exec.DefaultOptions()
		opt.VectorSize = 32
		res := runAndCheck(t, db, qs, Config{Exec: opt, Workers: 1})
		for _, ss := range res.Stats.Stems {
			switch {
			case ss.Table == "fact" && (ss.Inserts != 0 || ss.Entries != 0):
				t.Errorf("fact STeM built %d entries (%d held), want 0: every fact vector is final", ss.Inserts, ss.Entries)
			case ss.Table != "fact" && (ss.Entries == 0 || ss.Entries != ss.Inserts):
				t.Errorf("dimension STeM %s: %d entries, %d inserts; want the same non-zero count", ss.Table, ss.Entries, ss.Inserts)
			}
		}
	})

	// The same batch as a stream: the same rule through live admission, and
	// after the last retirement the collector returns every STeM to the
	// empty floor: no entries, no chunks and no tables — including the fact
	// STeM, which never builds.
	t.Run("stream", func(t *testing.T) {
		rng := rand.New(rand.NewSource(83))
		db := starDB(rng, 300, 30)
		qs := starQueries(rng, 8)
		opt := exec.DefaultOptions()
		opt.VectorSize = 32
		var rec *retireRecorder
		s, err := NewSession(query.NewStreamBatch(16), db, Config{
			Exec: opt, Workers: 1, Streaming: true,
			OnRetire: func(qid int, st QueryStatus) { rec.onRetire(qid, st) },
		})
		if err != nil {
			t.Fatal(err)
		}
		rec = newRetireRecorder(s)
		for _, q := range qs {
			qid, err := s.SubmitLiveMeta(q, SubmitMeta{})
			if err != nil {
				t.Fatal(err)
			}
			rec.track(qid)
		}
		join := streamRun(t, s)
		deadline := time.Now().Add(30 * time.Second)
		for !reclaimed(s) {
			if time.Now().After(deadline) {
				t.Fatalf("STeMs not back to the empty floor after every retirement: %+v", s.StemSnapshot())
			}
			time.Sleep(time.Millisecond)
		}
		s.CloseSubmit()
		join()
		if completed := rec.check(t, db, qs); completed != len(qs) {
			t.Errorf("completed = %d, want %d", completed, len(qs))
		}
		for _, ss := range s.StemSnapshot() {
			if ss.Table == "fact" && ss.Inserts != 0 {
				t.Errorf("fact STeM built %d entries, want 0", ss.Inserts)
			}
		}
	})

	// A fact vector carrying one final and one non-final query: qa joins a
	// dimension scanned before the fact table, qb one larger than it and so
	// scanned after. The fact STeM is built for qb alone.
	t.Run("mixed", func(t *testing.T) {
		rng := rand.New(rand.NewSource(89))
		db := mixedDB(rng, 256, 16, 1024)
		qa := factD1(0, 0)
		qb := &query.Query{
			Rels:  []query.RelRef{{Table: "fact"}, {Table: "d2"}},
			Joins: []query.Join{{LeftAlias: "fact", LeftCol: "fk2", RightAlias: "d2", RightCol: "k"}},
		}
		opt := exec.DefaultOptions()
		opt.VectorSize = 32
		var (
			s            *Session
			ida, idb     int
			factInst     query.InstID
			factLen, bad int
			checkedAtQa  atomic.Bool
			rec          *retireRecorder
		)
		s, err := NewSession(query.NewStreamBatch(8), db, Config{
			Exec: opt, Workers: 1, Streaming: true,
			OnRetire: func(qid int, st QueryStatus) {
				if qid == ida {
					// qa retires once the fact scan is over, so every fact
					// entry is built; the collector cannot sweep qa's bit
					// until this callback returns.
					fs := s.Context().Stems[factInst]
					factLen = fs.Len()
					fs.Each(func(_ int32, qset bitset.Set) {
						if qset.Contains(ida) || !qset.Contains(idb) {
							bad++
						}
					})
					checkedAtQa.Store(true)
				}
				rec.onRetire(qid, st)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rec = newRetireRecorder(s)
		if ida, err = s.SubmitLiveMeta(qa, SubmitMeta{}); err != nil {
			t.Fatal(err)
		}
		rec.track(ida)
		if idb, err = s.SubmitLiveMeta(qb, SubmitMeta{}); err != nil {
			t.Fatal(err)
		}
		rec.track(idb)
		factInst, _ = s.b.InstOfAlias(ida, "fact")
		d1, _ := s.b.InstOfAlias(ida, "d1")
		d2, _ := s.b.InstOfAlias(idb, "d2")
		if r := RankScans(s.b, s.ctx); !(r[d1] < r[factInst] && r[factInst] < r[d2]) {
			t.Fatalf("fixture ranks %v do not scan d1, fact, d2 in that order", r)
		}
		join := streamRun(t, s)
		s.CloseSubmit()
		join()
		if completed := rec.check(t, db, []*query.Query{qa, qb}); completed != 2 {
			t.Errorf("completed = %d, want 2", completed)
		}
		if !checkedAtQa.Load() || factLen == 0 {
			t.Fatalf("fact STeM empty at qa's retirement (checked=%v): qb, still to scan d2, needs it built", checkedAtQa.Load())
		}
		if bad != 0 {
			t.Errorf("%d of %d fact entries carry the final query's bit or lack the live one's", bad, factLen)
		}
	})
}

// reclaimed reports whether every STeM is back to the empty floor: no
// entries, and no chunk or table left to hold them.
func reclaimed(s *Session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.ctx.Stems {
		if st.Len() != 0 || st.EstBytes() != 0 {
			return false
		}
	}
	return true
}

// TestBuildRuleInFlightGuard pins the build rule's in-flight condition
// with two workers. A hook parks the episode carrying d1's last vector
// before it inserts; d1's scan is already complete, so while it is parked
// the other worker takes every fact vector with d1 in doneQ. Those fact
// tuples must still be built: the parked d1 tuples probe the fact STeM
// once released, and the matches between them exist nowhere else.
//
// Mutation-checked: dropping the in-flight condition from takeVectorLocked
// (`s.outstanding[qid] == st.flight[qid]`) makes every query's count fall
// short of the oracle here.
func TestBuildRuleInFlightGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	const factRows, dimRows, vec = 1024, 64, 16
	db := starDB(rng, factRows, dimRows)
	qs := []*query.Query{factD1(0, 0), factD1(10, 70), factD1(40, 99)}
	b, err := query.Compile(qs)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := b.InstOfAlias(0, "d1")
	fact, _ := b.InstOfAlias(0, "fact")
	// d1 ranks first, so its vectors take slots 0..dimRows/vec-1.
	lastD1 := stem.Slot(dimRows/vec - 1)

	release := make(chan struct{})
	var parked, timedOut atomic.Bool
	var factStarts atomic.Int32
	opt := exec.DefaultOptions()
	opt.VectorSize = vec
	opt.Hooks = exec.Hooks{EpisodeStart: func(inst query.InstID, slot stem.Slot) {
		switch {
		case inst == d1 && slot == lastD1:
			parked.Store(true)
			select {
			case <-release:
			case <-time.After(30 * time.Second):
				timedOut.Store(true)
			}
		case inst == fact:
			// The last fact vector starting means every earlier one finished
			// while the d1 episode was parked.
			if factStarts.Add(1) == factRows/vec {
				close(release)
			}
		}
	}}
	s, err := NewSession(b, db, Config{Exec: opt, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !parked.Load() || timedOut.Load() {
		t.Fatalf("schedule not forced: parked=%v, released by timeout=%v", parked.Load(), timedOut.Load())
	}
	for qid, q := range qs {
		if want := oracleCount(db, q); res.Counts[qid] != want {
			t.Errorf("query %d: count = %d, oracle = %d", qid, res.Counts[qid], want)
		}
	}
}

// mixedDB is starDB with independently sized dimensions: fact(fk1, fk2, v)
// ⋈ d1(k, a) on fk1 and ⋈ d2(k, a) on fk2.
func mixedDB(rng *rand.Rand, factRows, d1Rows, d2Rows int) *storage.Database {
	fact := catalog.NewRelation("fact", "fk1", "fk2", "v")
	d1 := catalog.NewRelation("d1", "k", "a")
	d2 := catalog.NewRelation("d2", "k", "a")
	sch := catalog.NewSchema(fact, d1, d2)
	db := storage.NewDatabase(sch)
	ft := storage.NewTable(fact, factRows)
	for i := 0; i < factRows; i++ {
		ft.Col("fk1")[i] = int64(rng.Intn(d1Rows))
		ft.Col("fk2")[i] = int64(rng.Intn(d2Rows))
		ft.Col("v")[i] = int64(rng.Intn(100))
	}
	db.Put(ft)
	for _, d := range []struct {
		name string
		n    int
	}{{"d1", d1Rows}, {"d2", d2Rows}} {
		n := d.n
		dt := storage.NewTable(sch.Relation(d.name), n)
		for i := 0; i < n; i++ {
			dt.Col("k")[i] = int64(i)
			dt.Col("a")[i] = int64(rng.Intn(100))
		}
		db.Put(dt)
	}
	return db
}
