// Streaming: the engine as a long-lived service. A stream is opened once;
// queries are submitted whenever they arrive, start executing immediately
// against the scans, STeMs and learned policy built by earlier queries,
// and each retires with its own result the moment its work drains. The
// example submits three waves, watches per-query latency and the STeM
// footprint, and shows the garbage collector reclaiming retired queries'
// state between waves.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"time"

	roulette "github.com/roulette-db/roulette"
)

func main() {
	rng := rand.New(rand.NewSource(5))

	// events(user_id, kind, ts) ⋈ users(id, cohort)
	const nEvents, nUsers = 200_000, 10_000
	userID := make([]int64, nEvents)
	kind := make([]int64, nEvents)
	ts := make([]int64, nEvents)
	for i := range userID {
		userID[i] = int64(rng.Intn(nUsers))
		kind[i] = int64(rng.Intn(16))
		ts[i] = int64(rng.Intn(86_400))
	}
	uid := make([]int64, nUsers)
	cohort := make([]int64, nUsers)
	for i := range uid {
		uid[i] = int64(i)
		cohort[i] = int64(rng.Intn(12))
	}

	e := roulette.NewEngine()
	e.MustCreateTable("events",
		roulette.ColSlice("user_id", userID),
		roulette.ColSlice("kind", kind),
		roulette.ColSlice("ts", ts),
	)
	e.MustCreateTable("users",
		roulette.ColSlice("id", uid),
		roulette.ColSlice("cohort", cohort),
	)

	ctx := context.Background()
	st, err := e.OpenStream(ctx, &roulette.StreamOptions{
		Options:    roulette.Options{Workers: 2},
		MaxQueries: 16,
	})
	if err != nil {
		log.Fatal(err)
	}

	mk := func(wave, i int) *roulette.Query {
		return roulette.NewQuery(fmt.Sprintf("w%d-q%d", wave, i)).
			From("events").From("users").
			Join("events", "user_id", "users", "id").
			Eq("events", "kind", int64(i%4)).
			Between("events", "ts", int64(i*4000), int64(i*4000+50_000)).
			CountStar()
	}

	stemBytes := func() (sum int64) {
		for _, s := range st.StemStats() {
			sum += s.EstBytes
		}
		return sum
	}

	for wave := 0; wave < 3; wave++ {
		fmt.Printf("--- wave %d (stem footprint at start: %d KiB) ---\n", wave, stemBytes()>>10)
		type inflight struct {
			tk    *roulette.Ticket
			start time.Time
		}
		var batch []inflight
		for i := 0; i < 6; i++ {
			q := mk(wave, wave*6+i)
			start := time.Now()
			tk, err := st.Submit(q)
			if errors.Is(err, roulette.ErrStreamFull) {
				// Capacity frees as the collector sweeps retired queries.
				time.Sleep(time.Millisecond)
				tk, err = st.Submit(q)
			}
			if err != nil {
				log.Fatal(err)
			}
			batch = append(batch, inflight{tk, start})
		}
		fmt.Printf("(in flight: stem footprint %d KiB)\n", stemBytes()>>10)
		for _, f := range batch {
			qr, err := f.tk.Wait(ctx)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8s count=%-7d latency=%v\n",
				qr.Tag, qr.Value(), time.Since(f.start).Round(time.Microsecond))
		}
		// Idle between waves: the GC sweeps the retired queries' STeM
		// entries, grouped-filter predicates and Q-table states.
		time.Sleep(20 * time.Millisecond)
	}

	fmt.Printf("--- after retirement (stem footprint: %d KiB) ---\n", stemBytes()>>10)
	for _, s := range st.StemStats() {
		fmt.Printf("%-8s entries=%-7d inserts=%-8d probes=%-8d est=%d KiB\n",
			s.Table, s.Entries, s.Inserts, s.Probes, s.EstBytes>>10)
	}
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
}
