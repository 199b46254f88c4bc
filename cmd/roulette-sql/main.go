// Command roulette-sql is a small SQL shell over the RouLette engine: it
// loads CSV files as tables (dictionary-encoding non-integer columns) and
// executes semicolon-separated SQL statements as shared batches.
//
// Usage:
//
//	roulette-sql -t orders=orders.csv -t customers=customers.csv [query.sql]
//
// With a file argument the statements are read from it; otherwise the shell
// reads statements from stdin (terminate each batch with a line containing
// only "go", or EOF). All statements of a batch execute together, sharing
// scans, filters and joins.
//
// With -serve the shell keeps one long-lived streaming session open
// instead: every ';'-terminated statement is submitted the moment it is
// read (from stdin, or from a client connected to -listen), starts
// executing immediately against the state built by earlier queries, and
// reports its result with per-query latency as soon as it retires.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	roulette "github.com/roulette-db/roulette"
	"github.com/roulette-db/roulette/internal/catalog"
	"github.com/roulette-db/roulette/internal/storage"
	"github.com/roulette-db/roulette/internal/value"
)

// tableFlags collects repeated -t name=path flags.
type tableFlags []string

func (t *tableFlags) String() string { return strings.Join(*t, ",") }
func (t *tableFlags) Set(s string) error {
	*t = append(*t, s)
	return nil
}

func main() {
	var tables tableFlags
	flag.Var(&tables, "t", "table to load: name=file.csv (repeatable; first row is the header)")
	workers := flag.Int("workers", 1, "RouLette workers")
	stats := flag.Bool("stats", false, "print an execution-stats summary after each batch (with -serve: the STeM table at shutdown)")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics (Prometheus text + JSON) on this address, e.g. :9090")
	serve := flag.Bool("serve", false, "streaming mode: keep one live session open; each ';'-terminated statement executes on arrival and reports its own latency")
	listen := flag.String("listen", "", "with -serve: also accept statements from TCP clients on this address, e.g. :5433")
	debugAddr := flag.String("debug-addr", "", "with -serve: serve the live introspection surface (/debug/roulette/snapshot, /debug/roulette/trace, /debug/pprof) on this address, e.g. :6060")
	stallWatch := flag.Duration("stall-watchdog", 2*time.Second, "with -serve: period of the engine's stall self-diagnosis (stalled episodes); 0 disables")
	policyPath := flag.String("policy", "", "policy store file: learned Q-table snapshots load from it at startup and save back on clean shutdown, so recurring workloads warm-start across invocations")
	logLevel := flag.String("log-level", "warn", "minimum level of engine diagnostics on stderr: debug, info, warn, error")
	flag.Parse()

	logger := newLogger(*logLevel)

	if len(tables) == 0 {
		logger.Error("at least one -t name=file.csv is required")
		os.Exit(2)
	}

	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", roulette.MetricsHandler())
		go func() {
			if err := http.ListenAndServe(*metricsAddr, mux); err != nil {
				logger.Error("metrics server", "err", err)
			}
		}()
		fmt.Printf("serving metrics on http://%s/metrics\n", *metricsAddr)
	}

	schema := catalog.NewSchema()
	db := storage.NewDatabase(schema)
	var order []string
	for _, spec := range tables {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			logger.Error("bad -t flag (want name=file.csv)", "flag", spec)
			os.Exit(2)
		}
		if err := loadTable(schema, db, name, path); err != nil {
			logger.Error("loading table failed", "err", err)
			os.Exit(1)
		}
		order = append(order, name)
		fmt.Printf("loaded %s (%d rows)\n", name, db.MustTable(name).NumRows())
	}
	e := roulette.NewEngineOn(db)
	unifyDictionaries(e, schema, order)

	// The policy store is always present in serve mode so \policy save/load
	// work without the flag; batch mode only carries one when asked. An
	// empty store is free: a cold lookup leaves runs bit-for-bit unchanged.
	store, err := roulette.NewPolicyStore(roulette.PolicyStoreOptions{Path: *policyPath})
	if err != nil {
		logger.Warn("policy store unusable, starting cold", "path", *policyPath, "err", err)
	}
	if *policyPath != "" && store.Len() > 0 {
		fmt.Printf("policy store: warm-starting from %s (%d cached templates)\n", *policyPath, store.Len())
	}

	if *serve {
		if err := runServe(e, serveConfig{
			workers: *workers, stats: *stats, listen: *listen,
			debugAddr: *debugAddr, stallWatch: *stallWatch, logger: logger,
			store: store,
		}); err != nil {
			logger.Error("serve failed", "err", err)
			os.Exit(1)
		}
		return
	}

	runBatch := func(src string) {
		src = strings.TrimSpace(src)
		if src == "" {
			return
		}
		// Ctrl-C during the batch cancels it gracefully (partial results
		// are printed as lower bounds). The context is scoped to one batch
		// so an interrupted batch does not poison the next one; at the
		// prompt Ctrl-C keeps its default behaviour and kills the shell.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		opts := &roulette.Options{Workers: *workers}
		if *policyPath != "" {
			opts.PolicyStore = store
		}
		res, err := e.ExecuteSQLContext(ctx, src, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return
		}
		for _, q := range res.Queries {
			note := ""
			if q.Aborted {
				note = fmt.Sprintf("\t-- aborted (%v), count is a lower bound", q.Err)
			}
			if len(q.Groups) <= 1 {
				fmt.Printf("%s: %d%s\n", q.Tag, q.Value(), note)
				continue
			}
			fmt.Printf("%s:%s\n", q.Tag, note)
			for _, g := range q.Groups {
				fmt.Printf("  %s\t%d\n", groupKey(g), g.Value)
			}
		}
		if res.Partial {
			fmt.Printf("(batch interrupted: partial results for %d queries in %v, %d episodes)\n",
				len(res.Queries), res.Elapsed, res.Episodes)
		} else {
			fmt.Printf("(%d queries in %v, %d episodes)\n", len(res.Queries), res.Elapsed, res.Episodes)
		}
		if *stats {
			fmt.Print(res.Stats.Summary())
		}
	}

	saveStore := func() {
		if *policyPath == "" {
			return
		}
		if err := store.Save(); err != nil {
			logger.Warn("policy store save failed", "path", *policyPath, "err", err)
			return
		}
		fmt.Printf("policy store saved to %s (%d cached templates)\n", *policyPath, store.Len())
	}

	if flag.NArg() > 0 {
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "roulette-sql:", err)
			os.Exit(1)
		}
		runBatch(string(data))
		saveStore()
		return
	}

	fmt.Println(`enter SQL statements; run the batch with a line containing only "go"`)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "go" {
			runBatch(buf.String())
			buf.Reset()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
	}
	runBatch(buf.String())
	saveStore()
}

// newLogger builds the stderr diagnostics logger for the given level name.
func newLogger(level string) *slog.Logger {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		lv = slog.LevelWarn
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv}))
}

// serveConfig carries runServe's knobs.
type serveConfig struct {
	workers    int
	stats      bool
	listen     string
	debugAddr  string
	stallWatch time.Duration
	logger     *slog.Logger
	store      *roulette.PolicyStore
}

// runServe keeps one streaming session open and feeds it statements from
// stdin (and, with -listen, from TCP clients) as they arrive. Each query
// shares scans, STeMs and learned planning state with whatever else is in
// flight and reports its own latency the moment it retires.
func runServe(e *roulette.Engine, sc serveConfig) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	workers, stats, listen := sc.workers, sc.stats, sc.listen
	st, err := e.OpenStream(ctx, &roulette.StreamOptions{
		Options:       roulette.Options{Workers: workers, Logger: sc.logger, PolicyStore: sc.store},
		StallWatchdog: sc.stallWatch,
	})
	if err != nil {
		return err
	}

	if sc.debugAddr != "" {
		go func() {
			if err := http.ListenAndServe(sc.debugAddr, st.DebugHandler()); err != nil {
				sc.logger.Error("debug server", "err", err)
			}
		}()
		fmt.Printf("serving introspection on http://%s/debug/roulette/snapshot\n", sc.debugAddr)
	}

	var out sync.Mutex // serializes result lines across retirement goroutines
	var wg sync.WaitGroup
	var seq int64
	submit := func(w io.Writer, stmt string) {
		stmt = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(stmt), ";"))
		if stmt == "" {
			return
		}
		q, err := roulette.ParseSQL(stmt)
		if err != nil {
			out.Lock()
			fmt.Fprintln(w, "error:", err)
			out.Unlock()
			return
		}
		q.WithTag(fmt.Sprintf("q%d", atomic.AddInt64(&seq, 1)))
		start := time.Now()
		tk, err := st.Submit(q)
		if err != nil {
			out.Lock()
			fmt.Fprintln(w, "error:", err)
			out.Unlock()
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			qr, _ := tk.Wait(context.Background())
			out.Lock()
			defer out.Unlock()
			note := ""
			if qr.Aborted {
				note = fmt.Sprintf("\t-- aborted (%v), count is a lower bound", qr.Err)
			}
			if len(qr.Groups) <= 1 {
				fmt.Fprintf(w, "%s: %d\t(%v)%s\n", qr.Tag, qr.Value(), time.Since(start).Round(time.Microsecond), note)
				return
			}
			fmt.Fprintf(w, "%s:\t(%v)%s\n", qr.Tag, time.Since(start).Round(time.Microsecond), note)
			for _, g := range qr.Groups {
				fmt.Fprintf(w, "  %s\t%d\n", groupKey(g), g.Value)
			}
		}()
	}

	// meta handles newline-terminated backslash commands.
	meta := func(w io.Writer, line string) {
		f := strings.Fields(line)
		out.Lock()
		defer out.Unlock()
		if f[0] != `\policy` {
			fmt.Fprintf(w, "error: unknown command %s (try \\policy)\n", f[0])
			return
		}
		switch {
		case len(f) == 1:
			s := sc.store.Stats()
			fmt.Fprintf(w, "policy store: %d templates cached, %d hits, %d misses, %d stores\n",
				s.Entries, s.Hits, s.Misses, s.Stores)
		case f[1] == "save" && len(f) == 3:
			// Snapshot the live session's learned state first so the file
			// reflects everything learned up to this moment, not just what
			// retirement sweeps have exported so far.
			st.SnapshotPolicy()
			if err := sc.store.SaveTo(f[2]); err != nil {
				fmt.Fprintln(w, "error:", err)
				return
			}
			fmt.Fprintf(w, "policy saved to %s (%d templates)\n", f[2], sc.store.Len())
		case f[1] == "load" && len(f) == 3:
			if err := sc.store.LoadFrom(f[2]); err != nil {
				fmt.Fprintln(w, "error:", err)
				return
			}
			fmt.Fprintf(w, "policy loaded from %s (%d templates; applies to statements submitted from now on)\n",
				f[2], sc.store.Len())
		default:
			fmt.Fprintln(w, `usage: \policy [save <file> | load <file>]`)
		}
	}

	// feed splits a reader into ';'-terminated statements, submitting each
	// as soon as its terminator arrives. Lines whose first character is a
	// backslash are meta-commands: they terminate at the newline and only
	// apply between statements (never mid-statement).
	feed := func(w io.Writer, r io.Reader) {
		var buf strings.Builder
		br := bufio.NewReader(r)
		for {
			line, err := br.ReadString('\n')
			if t := strings.TrimSpace(line); strings.HasPrefix(t, `\`) &&
				strings.TrimSpace(buf.String()) == "" {
				meta(w, t)
				line = ""
			}
			buf.WriteString(line)
			for {
				src := buf.String()
				i := strings.IndexByte(src, ';')
				if i < 0 {
					break
				}
				buf.Reset()
				buf.WriteString(src[i+1:])
				submit(w, src[:i])
			}
			if err != nil {
				submit(w, buf.String())
				return
			}
		}
	}

	if listen != "" {
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			return err
		}
		defer ln.Close()
		go func() {
			<-ctx.Done()
			ln.Close()
		}()
		fmt.Printf("accepting statements on %s\n", listen)
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func() {
					defer conn.Close()
					feed(conn, conn)
				}()
			}
		}()
	}

	fmt.Println(`streaming session open; statements execute the moment their ';' arrives`)
	feed(os.Stdout, os.Stdin)
	wg.Wait()
	if err := st.Close(); err != nil {
		return err
	}
	if stats {
		// Queries that retired after Close are not swept (the session is
		// about to be dropped), so their entries still show here.
		fmt.Println("STeM state at shutdown:")
		for _, s := range st.StemStats() {
			fmt.Printf("  %-16s entries=%-8d probes=%-10d matches=%-10d est_bytes=%d\n",
				s.Table, s.Entries, s.Probes, s.Matches, s.EstBytes)
		}
	}
	return nil
}

// loadTable reads a CSV with a header row into a typed relation: columns
// whose first data value does not look like an integer become
// dictionary-encoded string columns, and every column is nullable (empty
// fields and \N load as SQL NULL).
func loadTable(schema *catalog.Schema, db *storage.Database, name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	// Read the header and sniff the first data record to type the columns,
	// then reload with LoadCSV.
	sniff := bufio.NewScanner(f)
	if !sniff.Scan() {
		return fmt.Errorf("reading header of %s: empty file", path)
	}
	cols := strings.Split(strings.TrimSpace(sniff.Text()), ",")
	for i := range cols {
		cols[i] = strings.TrimSpace(cols[i])
	}
	var fields []string
	if sniff.Scan() {
		fields = strings.Split(sniff.Text(), ",")
	}
	schemaCols := make([]catalog.Column, len(cols))
	for i, c := range cols {
		schemaCols[i] = catalog.Column{Name: c, Nullable: true}
		if i < len(fields) && !looksInteger(strings.TrimSpace(fields[i])) {
			schemaCols[i].Type = value.String
		}
	}
	rel := catalog.NewTypedRelation(name, schemaCols...)
	if err := schema.AddRelation(rel); err != nil {
		return err
	}

	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	t, err := storage.LoadCSV(rel, f, storage.CSVOptions{Header: true})
	if err != nil {
		return fmt.Errorf("loading %s: %w", path, err)
	}
	db.Put(t)
	return nil
}

// unifyDictionaries merges every string column's dictionary into one shared
// dictionary, so any SQL join between string columns compares codes
// directly (the engine requires joined string columns to share one
// dictionary, and sharing it globally is always semantics-preserving:
// equal codes iff equal strings).
func unifyDictionaries(e *roulette.Engine, schema *catalog.Schema, tables []string) {
	var refs []string
	for _, tn := range tables {
		rel := schema.Relation(tn)
		for _, c := range rel.Columns {
			if c.Type == value.String {
				refs = append(refs, tn+"."+c.Name)
			}
		}
	}
	if len(refs) < 2 {
		return
	}
	if err := e.ShareDictionary(refs...); err != nil {
		fmt.Fprintln(os.Stderr, "warning: dictionary unification:", err)
		return
	}
	fmt.Printf("unified string dictionary across %s\n", strings.Join(refs, ", "))
}

// groupKey renders a group key for output: decoded string labels for
// dictionary-encoded GROUP BY columns, NULL for the NULL group, and the raw
// integer otherwise.
func groupKey(g roulette.Group) string {
	if g.Key == roulette.NullValue {
		return "NULL"
	}
	if g.Label != "" {
		return g.Label
	}
	return fmt.Sprintf("%d", g.Key)
}

func looksInteger(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		if r == '-' && i == 0 && len(s) > 1 {
			continue
		}
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}
