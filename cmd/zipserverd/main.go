// Command zipserverd serves the repository's three from-scratch codecs over
// HTTP (internal/server): POST /v1/{lz77|lzw|bwt}/{compress|decompress} with
// a content-addressed response cache, a bounded codec worker pool, and
// live telemetry at GET /metrics (canonical obs snapshot by default,
// Prometheus text exposition with ?format=prom). Request tracing is on by
// default: every /v1 request gets a span tree continuing any incoming
// traceparent header, and the response echoes the request's traceparent.
// SIGINT/SIGTERM trigger graceful shutdown: in-flight requests drain up to
// the -drain deadline, after which remaining connections are cut; the final
// metrics snapshot is written either way.
//
// Usage:
//
//	zipserverd -addr 127.0.0.1:8321 -workers 8 -cache-mb 64
//	curl -s --data-binary @file http://127.0.0.1:8321/v1/bwt/compress -o file.bz
//	curl -s http://127.0.0.1:8321/metrics
//	curl -s 'http://127.0.0.1:8321/metrics?format=prom'
//
// Observability extras:
//
//	zipserverd -access-log access.ndjson -trace-file spans.ndjson -pprof
//
// The cache topology follows from the tier budgets: a hot in-memory LRU
// when -cache-mb > 0 (default 64) and a disk cold tier under it when
// -cache-cold-mb > 0 (default 0). The hierarchy belongs to this process
// alone: no cache tier is reachable from outside it except through /v1
// (DESIGN.md §10):
//
//	zipserverd -cache-mb 4 -cache-cold-mb 64 -cache-dir /var/cache/zip
//
// For scripting, -addr supports port 0 and -addr-file writes the
// actually-bound address once listening.
//
// Chaos runs arm deterministic fault injection:
//
//	zipserverd -faults 'server.codec.compress=error:0.05,server.cache.get=corrupt:0.05' -fault-seed 7
//
// The compressed page store (internal/pagestore) mounts on PUT/GET
// /v1/pages/{id} with -pagestore; -pagestore-plant co-locates a secret
// with an attacker-writable region in one page, the target cmd/zippages
// recovers remotely from X-Page-Steps alone:
//
//	zipserverd -pagestore -page-size 4096 -pool-mb 1 -pagestore-plant 'victim=64:key=HUNTER2SECRET000'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/pagestore"
	"github.com/zipchannel/zipchannel/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "zipserverd:", err)
		os.Exit(1)
	}
}

// cacheConfig collects the -cache-* flags that shape the backend
// hierarchy. Each tier exists when its budget is set.
type cacheConfig struct {
	HotBytes  int64 // in-memory LRU budget; <= 0 means no hot tier
	ColdBytes int64 // disk tier budget; <= 0 means no cold tier
	Dir       string
}

// buildCache composes the configured backend hierarchy (DESIGN.md §10).
// It returns the lookup chain (nil when no tier is configured) and a
// cleanup for any temp dir it created.
//
// Metric prefixes: a single-backend setup keeps the classic server.cache
// series; a hierarchy puts the aggregate there and per-tier series under
// server.cache.{hot,cold}.
func buildCache(cc cacheConfig, reg *obs.Registry, freg *fault.Registry) (cache server.CacheBackend, cleanup func(), err error) {
	cleanup = func() {}
	hotPrefix, coldPrefix := "server.cache", "server.cache"
	if cc.HotBytes > 0 && cc.ColdBytes > 0 {
		hotPrefix, coldPrefix = "server.cache.hot", "server.cache.cold"
	}

	if cc.HotBytes > 0 {
		cache = server.NewLRUBackend(cc.HotBytes, reg, hotPrefix)
	}
	if cc.ColdBytes > 0 {
		dir := cc.Dir
		if dir == "" {
			if dir, err = os.MkdirTemp("", "zipserverd-cache-*"); err != nil {
				return nil, cleanup, err
			}
			cleanup = func() { os.RemoveAll(dir) }
		}
		cold, err := server.NewDiskBackend(dir, cc.ColdBytes, reg, coldPrefix, freg)
		if err != nil {
			return nil, cleanup, err
		}
		if cache == nil {
			cache = cold
		} else {
			cache = server.NewTiered(cache, cold, reg, "server.cache")
		}
	}
	return cache, cleanup, nil
}

// runScrub is the -cache-scrub mode: one offline pass over a disk-cache
// directory (the same scrub every startup runs), reported to stdout. The
// pass is idempotent and safe on a live directory only if no zipserverd
// is writing to it — run it before boot, not beside one.
func runScrub(dir string) error {
	rep, err := server.ScrubDir(dir)
	if err != nil {
		return err
	}
	fmt.Printf("cache scrub: %s\n", rep.Dir)
	fmt.Printf("  intact entries:     %d (%d value bytes)\n", rep.Recovered, rep.RecoveredBytes)
	fmt.Printf("  quarantined:        %d\n", len(rep.Quarantined))
	for _, name := range rep.Quarantined {
		fmt.Printf("    %s -> %s/\n", name, server.QuarantineDir)
	}
	fmt.Printf("  temp files removed: %d\n", rep.TempsRemoved)
	return nil
}

// parsePlant decodes -pagestore-plant's "id=attackerLen:secret" form.
// The secret may itself contain '=' and ':' — only the first '=' and the
// first ':' after it delimit.
func parsePlant(s string) (id string, attackerLen int, secret []byte, err error) {
	eq := strings.Index(s, "=")
	if eq <= 0 {
		return "", 0, nil, fmt.Errorf("-pagestore-plant %q: want id=attackerLen:secret", s)
	}
	id = s[:eq]
	rest := s[eq+1:]
	colon := strings.Index(rest, ":")
	if colon <= 0 {
		return "", 0, nil, fmt.Errorf("-pagestore-plant %q: want id=attackerLen:secret", s)
	}
	attackerLen, err = strconv.Atoi(rest[:colon])
	if err != nil {
		return "", 0, nil, fmt.Errorf("-pagestore-plant %q: bad attacker region size: %w", s, err)
	}
	return id, attackerLen, []byte(rest[colon+1:]), nil
}

// run parses args, serves until ctx is done, then drains for at most
// -drain and writes the -metrics snapshot. Cancelling ctx is the
// SIGTERM of a test.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	d, err := start(args, stderr)
	if err != nil || d == nil {
		return err
	}
	return d.serve(ctx)
}

// daemon is a listening zipserverd: start has bound its address and
// begun serving; serve waits for the end and shuts it down.
type daemon struct {
	srv     *server.Server
	httpSrv *http.Server
	addr    string // the bound address, port 0 resolved
	errc    chan error
	drain   time.Duration
	metrics string
	stderr  io.Writer
	closers []func() // sink files and the cache temp dir, in order
}

// start parses args, builds the server and its cache, listens, and
// starts serving. It returns a nil daemon (and nil error) for the
// one-shot -cache-scrub mode and for -h.
func start(args []string, stderr io.Writer) (_ *daemon, err error) {
	fs := flag.NewFlagSet("zipserverd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:8321", "listen address (port 0 picks a free port)")
		addrFile = fs.String("addr-file", "", "write the bound address to this file once listening")
		workers  = fs.Int("workers", 0, "max concurrent codec executions and page operations (0 = GOMAXPROCS)")
		queueLim = fs.Int("queue-limit", 0, "max codec and page requests waiting beyond -workers before shedding 503+Retry-After (0 = 8x workers)")
		maxBody  = fs.Int64("max-body", server.DefaultMaxBodyBytes, "per-request body cap in bytes")

		cacheMB     = fs.Int64("cache-mb", 64, "in-memory (hot) LRU tier budget in MiB (0 or negative: no hot tier)")
		cacheColdMB = fs.Int64("cache-cold-mb", 0, "disk (cold) tier budget in MiB (0: no disk tier)")
		cacheDir    = fs.String("cache-dir", "", "directory for the disk tier (empty = private temp dir, removed on exit)")
		cacheMaxAge = fs.Int("cache-max-age", 0, "max-age seconds advertised in Cache-Control on /v1 responses (0 = default, negative disables)")
		cacheScrub  = fs.Bool("cache-scrub", false, "scrub -cache-dir (verify entries, quarantine torn ones, remove temps), print the report, and exit")
		metrics     = fs.String("metrics", "", "write a final obs snapshot to this file on shutdown")
		faults      = fs.String("faults", "", "deterministic fault injections, comma-separated point=kind:prob[:param] or point=kind@n[:param] (empty disables)")
		fseed       = fs.Int64("fault-seed", 1, "root seed for the fault registry's per-point streams")
		drain       = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain deadline before in-flight connections are cut")

		pagestoreOn = fs.Bool("pagestore", false, "mount the compressed page store on PUT/GET /v1/pages/{id}")
		pageSize    = fs.Int("page-size", pagestore.DefaultPageSize, "page size in bytes for -pagestore")
		poolMB      = fs.Int64("pool-mb", 1, "compressed page pool budget in MiB for -pagestore (LRU writeback past it)")
		pageCodec   = fs.String("page-codec", pagestore.DefaultCodec, "registry codec pages compress with")
		pagePlant   = fs.String("pagestore-plant", "", "plant a co-located page: id=attackerLen:secret (e.g. 'victim=64:key=HUNTER2') — the attack target cmd/zippages recovers")

		trace     = fs.Bool("trace", true, "per-request span trees + traceparent propagation (false disables tracing entirely)")
		traceSeed = fs.Int64("trace-seed", 1, "seed for trace/span ID generation (reproducible ID sequences under sequential load)")
		traceFile = fs.String("trace-file", "", "append span NDJSON records to this file (- for stderr; empty = spans counted but not logged)")
		accessLog = fs.String("access-log", "", "append one NDJSON access record per /v1 request to this file (- for stderr)")
		pprofOn   = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (opt-in profiling surface)")
		slo       = fs.Duration("slo", 0, "per-request latency objective for server.slo.* counters (0 = default 500ms, negative disables latency breaches)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil, nil
		}
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *queueLim < 0 {
		return nil, fmt.Errorf("-queue-limit %d: must be >= 0 (0 = 8x workers)", *queueLim)
	}

	if *cacheScrub {
		if *cacheDir == "" {
			return nil, fmt.Errorf("-cache-scrub requires -cache-dir")
		}
		return nil, runScrub(*cacheDir)
	}

	var freg *fault.Registry
	if *faults != "" {
		freg = fault.NewRegistry(*fseed)
		if err := freg.ArmAll(*faults); err != nil {
			return nil, err
		}
	}

	d := &daemon{drain: *drain, metrics: *metrics, stderr: stderr}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	// openSink maps a flag value to a writer: "-" is stderr (stdout stays
	// clean for scripted output), anything else appends to the named file.
	openSink := func(path string) (io.Writer, error) {
		if path == "-" {
			return stderr, nil
		}
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		d.closers = append(d.closers, func() { f.Close() })
		return f, nil
	}

	reg := obs.NewRegistry()
	if *traceFile != "" {
		w, err := openSink(*traceFile)
		if err != nil {
			return nil, err
		}
		reg.SetTraceSink(obs.NewTraceSink(w))
	}
	var tracer *obs.Tracer
	if *trace {
		tracer = obs.NewTracer(reg, *traceSeed)
	}
	var accessW io.Writer
	if *accessLog != "" {
		w, err := openSink(*accessLog)
		if err != nil {
			return nil, err
		}
		accessW = w
	}

	cache, cleanup, err := buildCache(cacheConfig{
		HotBytes:  *cacheMB << 20,
		ColdBytes: *cacheColdMB << 20,
		Dir:       *cacheDir,
	}, reg, freg)
	d.closers = append(d.closers, cleanup)
	if err != nil {
		return nil, err
	}

	var pages *pagestore.Store
	if *pagestoreOn {
		pages = pagestore.New(pagestore.Config{
			PageSize:  *pageSize,
			PoolBytes: *poolMB << 20,
			Codec:     *pageCodec,
			Obs:       reg,
			Faults:    freg,
		})
		if *pagePlant != "" {
			id, attackerLen, secret, err := parsePlant(*pagePlant)
			if err != nil {
				return nil, err
			}
			if _, err := pages.Plant(id, attackerLen, secret); err != nil {
				return nil, err
			}
			fmt.Fprintf(stderr, "zipserverd: planted page %q (attacker region %d, %d secret bytes co-located)\n",
				id, attackerLen, len(secret))
		}
	} else if *pagePlant != "" {
		return nil, fmt.Errorf("-pagestore-plant requires -pagestore")
	}

	d.srv = server.New(server.Config{
		MaxBodyBytes: *maxBody,
		CacheBytes:   -1, // buildCache is the only cache source: nil means no tier configured
		Cache:        cache,
		CacheMaxAge:  *cacheMaxAge,
		Workers:      *workers,
		QueueLimit:   *queueLim,
		Registry:     reg,
		Faults:       freg,
		Tracer:       tracer,
		AccessLog:    accessW,
		EnablePprof:  *pprofOn,
		SLOLatency:   *slo,
		PageStore:    pages,
	})
	if freg != nil {
		fmt.Fprintf(stderr, "zipserverd: chaos armed (seed %d): %s\n", *fseed, strings.Join(freg.Armed(), " "))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return nil, err
	}
	d.addr = ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(d.addr), 0o644); err != nil {
			ln.Close()
			return nil, err
		}
	}
	fmt.Fprintf(stderr, "zipserverd: listening on %s (workers=%d)\n", d.addr, d.srv.Workers())

	d.httpSrv = &http.Server{Handler: d.srv}
	d.errc = make(chan error, 1)
	go func() { d.errc <- d.httpSrv.Serve(ln) }()
	return d, nil
}

// serve waits for ctx to end (or Serve to fail), drains in-flight
// requests for at most the drain deadline, and writes the final metrics
// snapshot.
func (d *daemon) serve(ctx context.Context) error {
	defer d.close()
	select {
	case err := <-d.errc:
		return err // Serve never returns nil before Shutdown
	case <-ctx.Done():
	}
	fmt.Fprintf(d.stderr, "zipserverd: shutting down (drain %s)\n", d.drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), d.drain)
	defer cancel()
	if err := d.httpSrv.Shutdown(shutdownCtx); err != nil {
		// The drain deadline expired with requests still in flight: cut
		// them rather than hang forever. Exit stays clean — a bounded
		// drain is the contract, not a zero-loss one.
		fmt.Fprintf(d.stderr, "zipserverd: drain deadline exceeded, forcing close: %v\n", err)
		d.httpSrv.Close()
	}
	<-d.errc // reap the Serve goroutine (returns http.ErrServerClosed)
	// The final snapshot is written even after a forced close — a chaos
	// run's post-mortem needs the counters most when shutdown was ugly.
	if d.metrics != "" {
		if err := d.srv.Registry().WriteSnapshot(d.metrics); err != nil {
			return err
		}
	}
	return nil
}

// close releases the sink files and the cache temp dir.
func (d *daemon) close() {
	for _, c := range d.closers {
		c()
	}
}
