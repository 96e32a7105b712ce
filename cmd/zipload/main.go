// Command zipload is a seeded, deterministic traffic generator for
// zipserverd. It draws request bodies from internal/corpus (so the payload
// mix is reproducible from one -seed), fans -clients workers with
// par.ForEach (each client owns an RNG stream split from the root seed and
// a private obs.Registry, merged in client order afterwards), and reports
// throughput, error counts, the server's cache hit rate (read back from
// GET /metrics), and a client-side request-latency histogram.
//
// Usage:
//
//	zipload -url http://127.0.0.1:8321 -clients 8 -duration 2s
//	zipload -url http://127.0.0.1:8321 -clients 4 -requests 100 -codecs bwt
//
// Every compress request is round-trip verified through the matching
// decompress endpoint unless -verify=false. The exit status is non-zero if
// any request failed, so scripts can assert zero errors.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/zipchannel/zipchannel/internal/compress/codec"
	"github.com/zipchannel/zipchannel/internal/corpus"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/par"

	"math/rand"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "zipload:", err)
		var ue *unreachableError
		if errors.As(err, &ue) {
			os.Exit(3)
		}
		os.Exit(1)
	}
}

func run() error {
	var (
		url      = flag.String("url", "http://127.0.0.1:8321", "zipserverd base URL")
		urls     = flag.String("urls", "", "comma-separated zipserverd base URLs (cluster mode: consistent-hash routing; overrides -url)")
		zipfS    = flag.Float64("zipf", 0, "Zipf skew s for body selection (> 1; 0 = uniform) — hot-key traffic for cache-tier benchmarks")
		digest   = flag.Bool("digest", false, "print the order-insensitive XOR-of-SHA256 digest over all response bodies (byte-identity comparisons across runs)")
		clients  = flag.Int("clients", 8, "concurrent client workers")
		duration = flag.Duration("duration", 2*time.Second, "how long to generate load")
		requests = flag.Int("requests", 0, "requests per client (overrides -duration when > 0)")
		codecs   = flag.String("codecs", codec.NamesString(), "comma-separated codec subset")
		seed     = flag.Int64("seed", 1, "root seed for the body pool and per-client RNG streams")
		verify   = flag.Bool("verify", true, "round-trip every compression through decompress")
		bodyCap  = flag.Int("body-bytes", 4096, "truncate corpus bodies to this many bytes")
		metrics  = flag.String("metrics", "", "write the merged client obs snapshot to this file")
		pageFrac = flag.Float64("pagestore", 0, "fraction of iterations that drive PUT/GET /v1/pages/{id} (0 disables; requires zipserverd -pagestore)")
		pageIDs  = flag.Int("page-ids", 4, "distinct page ids per client for -pagestore traffic")
		pageB    = flag.Int("page-bytes", 4096, "page payload cap; match the server's -page-size")
		retries  = flag.Int("retries", 3, "retry attempts per request on 5xx/connection errors (0 disables)")
		rbase    = flag.Duration("retry-base", 5*time.Millisecond, "exponential-backoff base; jitter in [0,base) is drawn from the client's seeded RNG")
		rmax     = flag.Duration("retry-max", 2*time.Second, "cap on one attempt's backoff, including an honored Retry-After (0 = uncapped)")
		hedge    = flag.Duration("hedge", 0, "hedge a request to the next ring owner when the primary hasn't answered within this delay (0 disables; cluster mode only)")
		hedgeBud = flag.Int("hedge-budget", 64, "max hedged requests per client stream (with -hedge)")
	)
	flag.Parse()

	names, err := parseCodecs(*codecs)
	if err != nil {
		return err
	}
	cfg := loadConfig{
		BaseURL:     strings.TrimRight(*url, "/"),
		ZipfS:       *zipfS,
		Digest:      *digest,
		Clients:     *clients,
		Duration:    *duration,
		Requests:    *requests,
		Codecs:      names,
		Seed:        *seed,
		Verify:      *verify,
		BodyCap:     *bodyCap,
		PageFrac:    *pageFrac,
		PageIDs:     *pageIDs,
		PageBytes:   *pageB,
		Retries:     *retries,
		RetryBase:   *rbase,
		RetryMax:    *rmax,
		Hedge:       *hedge,
		HedgeBudget: *hedgeBud,
	}
	if *urls != "" {
		for _, part := range strings.Split(*urls, ",") {
			if u := strings.TrimRight(strings.TrimSpace(part), "/"); u != "" {
				cfg.URLs = append(cfg.URLs, u)
			}
		}
	}
	res, err := runLoad(cfg)
	if err != nil {
		return err
	}
	res.report(os.Stdout, cfg)
	if *metrics != "" {
		if err := res.Registry.WriteSnapshot(*metrics); err != nil {
			return err
		}
	}
	if len(res.Unreachable) > 0 {
		// Liveness, not correctness: exit 3 so scripts can tell a dead
		// instance from verification noise — even when failover kept the
		// error count at zero.
		return &unreachableError{
			addrs:    res.Unreachable,
			errs:     res.Errors,
			requests: res.Requests,
			first:    res.FirstError,
		}
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed (first: %s)", res.Errors, res.Requests, res.FirstError)
	}
	return nil
}

// parseCodecs validates a comma-separated subset against the registry.
func parseCodecs(s string) ([]string, error) {
	var names []string
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		if _, ok := codec.Lookup(name); !ok {
			return nil, fmt.Errorf("unknown codec %q (have %s)", name, codec.NamesString())
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no codecs selected (have %s)", codec.NamesString())
	}
	return names, nil
}

// loadConfig parameterizes one load run.
type loadConfig struct {
	BaseURL string
	// URLs enables cluster mode: requests are routed across these
	// instances by a consistent hash of (codec, body). Empty = single
	// instance at BaseURL.
	URLs []string
	// ZipfS skews body selection toward hot keys with a Zipf(s)
	// distribution (s > 1; 0 = uniform). Hot keys are what make cache
	// tiers earn their keep, so the cluster bench runs skewed.
	ZipfS float64
	// Digest accumulates the XOR of per-response SHA-256 digests —
	// order-insensitive, so comparable across runs with different
	// concurrency interleavings and cluster shapes.
	Digest   bool
	Clients  int
	Duration time.Duration
	Requests int // per client; 0 = run until Duration elapses
	Codecs   []string
	Seed     int64
	Verify   bool
	BodyCap  int
	// PageFrac > 0 makes that fraction of each client's iterations page
	// traffic (see pages.go). Strictly opt-in: 0 draws nothing from the
	// page RNG stream and folds no page response into the digest, so
	// baselines are byte-identical whether or not the servers mount a
	// page store.
	PageFrac  float64
	PageIDs   int
	PageBytes int
	pagePool  [][]byte // set by runLoad when PageFrac > 0
	// Retries is the per-request retry budget against transient failures
	// (5xx and connection errors; 4xx are never retried). Backoff is
	// RetryBase·2^attempt plus a jitter in [0, RetryBase) drawn from the
	// client's seeded RNG — drawn only when a retry actually happens, so
	// a failure-free run consumes exactly the same RNG stream as a run
	// with retries disabled. A shed response's Retry-After raises the
	// backoff floor; RetryMax caps either source.
	Retries   int
	RetryBase time.Duration
	RetryMax  time.Duration
	// Hedge > 0 arms hedged requests in cluster mode: an attempt that has
	// not answered within Hedge races a duplicate against the next ring
	// owner, first server answer wins, the loser is canceled. Off by
	// default — and when off, request flow is byte-identical to earlier
	// builds. HedgeBudget bounds hedges per client stream.
	Hedge       time.Duration
	HedgeBudget int
}

// loadResult aggregates all clients' outcomes. Registry carries the merged
// per-client metrics (zipload.latency_us etc.); ServerSnap is the server's
// /metrics snapshot fetched after the run (nil if unreachable).
type loadResult struct {
	Requests   uint64
	Errors     uint64
	BytesIn    uint64 // request bytes sent
	BytesOut   uint64 // response bytes received
	Elapsed    time.Duration
	FirstError string
	Digest     string // hex XOR-of-SHA256 over response bodies ("" unless cfg.Digest)
	Registry   *obs.Registry
	ServerSnap *obs.Snapshot
	// Unreachable lists instances that saw transport failures during the
	// run AND still fail their health probe afterwards — dead, not
	// blipped. Drives exit code 3.
	Unreachable []string
}

// allURLs is the instance list a run actually targets.
func (cfg loadConfig) allURLs() []string {
	if len(cfg.URLs) > 0 {
		return cfg.URLs
	}
	return []string{cfg.BaseURL}
}

// clientResult is one worker's slot (par.ForEach contract: each client
// writes only here).
type clientResult struct {
	requests   uint64
	errors     uint64
	firstErr   string
	digest     [sha256.Size]byte
	reg        *obs.Registry
	hedgesLeft int
}

// bodyPool builds the deterministic request-body mix: every corpus file
// truncated to cap bytes (skipping empties), so the pool spans English
// text, structured data, random bytes, zeros, and tiny degenerate inputs.
func bodyPool(seed int64, cap int) [][]byte {
	var pool [][]byte
	for _, f := range corpus.BrotliLike(seed) {
		data := f.Data
		if len(data) > cap {
			data = data[:cap]
		}
		if len(data) > 0 {
			pool = append(pool, data)
		}
	}
	return pool
}

// runLoad executes the configured load and aggregates results.
func runLoad(cfg loadConfig) (*loadResult, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.ZipfS != 0 && cfg.ZipfS <= 1 {
		return nil, fmt.Errorf("-zipf skew must be > 1 (got %g)", cfg.ZipfS)
	}
	if cfg.PageFrac < 0 || cfg.PageFrac > 1 {
		return nil, fmt.Errorf("-pagestore fraction must be in [0,1] (got %g)", cfg.PageFrac)
	}
	pool := bodyPool(cfg.Seed, cfg.BodyCap)
	if cfg.PageFrac > 0 {
		if cfg.PageIDs <= 0 {
			cfg.PageIDs = 4
		}
		if cfg.PageBytes <= 0 {
			cfg.PageBytes = 4096
		}
		// The page pool caps at the page size, independent of -body-bytes:
		// a page PUT larger than the server's page is a 413, not load.
		cfg.pagePool = bodyPool(cfg.Seed, cfg.PageBytes)
	}
	urls := cfg.allURLs()
	rt := newRing(urls)
	httpc := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Clients * 2,
			MaxIdleConnsPerHost: cfg.Clients * 2,
		},
	}

	// Liveness check before unleashing the fleet. A dead instance here is
	// an unreachableError (exit 3), not generic failure noise.
	for _, u := range urls {
		if err := checkHealth(httpc, u); err != nil {
			return nil, &unreachableError{addrs: []string{u}, first: err.Error()}
		}
	}

	results := make([]clientResult, cfg.Clients)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	err := par.ForEach(cfg.Clients, cfg.Clients, func(i int) error {
		cr := &results[i]
		cr.reg = obs.NewRegistry()
		// Each client owns a private health view of the cluster (failover
		// state never crosses streams) and a hedge budget.
		var hv *healthView
		if len(urls) > 1 {
			hv = newHealthView(len(urls))
			if cfg.Hedge > 0 {
				cr.hedgesLeft = cfg.HedgeBudget
			}
		}
		rng := rand.New(rand.NewSource(par.SplitSeed(cfg.Seed, fmt.Sprintf("client-%d", i))))
		// Page traffic owns a separate RNG stream: when PageFrac is 0 it
		// is never created, so the codec request sequence (and every byte
		// of the digest) is identical to a pagestore-free build.
		var pageRng *rand.Rand
		if cfg.PageFrac > 0 {
			pageRng = rand.New(rand.NewSource(par.SplitSeed(cfg.Seed, fmt.Sprintf("pages-client-%d", i))))
		}
		// Zipf over pool *indices*: rank 0 (the first corpus body) is the
		// hottest key. Same seed → same sequence, so skewed runs stay
		// reproducible.
		var zipf *rand.Zipf
		if cfg.ZipfS > 1 {
			zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(pool)-1))
		}
		for n := 0; ; n++ {
			if cfg.Requests > 0 {
				if n >= cfg.Requests {
					return nil
				}
			} else if !time.Now().Before(deadline) {
				return nil
			}
			if pageRng != nil && pageRng.Float64() < cfg.PageFrac {
				onePageRequest(httpc, cfg, rt, i, cr, pageRng)
				continue
			}
			name := cfg.Codecs[rng.Intn(len(cfg.Codecs))]
			var body []byte
			if zipf != nil {
				body = pool[zipf.Uint64()]
			} else {
				body = pool[rng.Intn(len(pool))]
			}
			oneRequest(httpc, cfg, rt, hv, name, body, cr, rng)
		}
	})
	if err != nil {
		return nil, err
	}

	res := &loadResult{Elapsed: time.Since(start), Registry: obs.NewRegistry()}
	var acc [sha256.Size]byte
	for i := range results {
		cr := &results[i]
		res.Requests += cr.requests
		res.Errors += cr.errors
		if res.FirstError == "" && cr.firstErr != "" {
			res.FirstError = cr.firstErr
		}
		for b := range acc {
			acc[b] ^= cr.digest[b]
		}
		res.Registry.Merge(cr.reg) // client order: deterministic merge
	}
	if cfg.Digest {
		res.Digest = hex.EncodeToString(acc[:])
	}
	snap := res.Registry.Snapshot()
	res.BytesIn = snap.Counters["zipload.bytes_in"]
	res.BytesOut = snap.Counters["zipload.bytes_out"]
	// Any instance that refused connections during the run gets one final
	// health probe: still down → unreachable (exit 3); back up → a blip
	// that failover/retries absorbed, reported but not fatal.
	for i, u := range urls {
		if snap.Counters["zipload.connfail."+strconv.Itoa(i)] == 0 {
			continue
		}
		if err := checkHealth(httpc, u); err != nil {
			res.Unreachable = append(res.Unreachable, u)
		}
	}
	res.ServerSnap = fetchClusterMetrics(httpc, urls)
	return res, nil
}

// fetchClusterMetrics sums counter and gauge snapshots across all
// instances, so the report's hit-rate math sees cluster-wide totals. Any
// unreachable instance is skipped; nil only when none answered.
func fetchClusterMetrics(httpc *http.Client, urls []string) *obs.Snapshot {
	var agg *obs.Snapshot
	for _, u := range urls {
		snap := fetchMetrics(httpc, u)
		if snap == nil {
			continue
		}
		if agg == nil {
			agg = snap // freshly decoded: safe to accumulate into
			if agg.Counters == nil {
				agg.Counters = map[string]uint64{}
			}
			if agg.Gauges == nil {
				agg.Gauges = map[string]float64{}
			}
			continue
		}
		for k, v := range snap.Counters {
			agg.Counters[k] += v
		}
		for k, v := range snap.Gauges {
			agg.Gauges[k] += v
		}
	}
	return agg
}

// checkHealth probes /healthz so a dead server is one clear error instead
// of clients*requests connection failures.
func checkHealth(httpc *http.Client, base string) error {
	resp, err := httpc.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("server not reachable: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// oneRequest performs one compress (optionally + decompress verify)
// exchange, recording into the client's slot and registry.
func oneRequest(httpc *http.Client, cfg loadConfig, rt *ring, hv *healthView, name string, body []byte, cr *clientResult, rng *rand.Rand) {
	fail := func(format string, args ...any) {
		cr.errors++
		cr.reg.Counter("zipload.errors").Inc()
		if cr.firstErr == "" {
			cr.firstErr = fmt.Sprintf(format, args...)
		}
	}
	comp, _, err := postWithRetry(httpc, cfg, rt, hv, name, "compress", body, cr, rng)
	if err != nil {
		fail("compress %s: %v", name, err)
		return
	}
	if !cfg.Verify {
		return
	}
	// The decompress verify routes by its own body (the compressed
	// bytes), so in a cluster it usually lands on a different instance
	// than the compress did — cross-instance verification for free.
	back, tp, err := postWithRetry(httpc, cfg, rt, hv, name, "decompress", comp, cr, rng)
	if err != nil {
		fail("decompress %s: %v", name, err)
		return
	}
	if !bytes.Equal(back, body) {
		// Echo the server's traceparent so a verification failure can be
		// joined against the server's span tree and access log.
		fail("round trip %s: sent %d bytes, got %d back%s", name, len(body), len(back), traceSuffix(tp))
	}
}

// traceSuffix renders the server-echoed traceparent for error messages
// ("" when the server ran without tracing).
func traceSuffix(tp string) string {
	if tp == "" {
		return ""
	}
	return " [traceparent " + tp + "]"
}

// postWithRetry wraps timedPost with the degraded-mode request loop:
// health-checked failover across the ring owners, optional hedging, and
// the transient-failure retry with exponential backoff RetryBase·2^attempt
// plus seeded jitter — raised to an honored Retry-After floor when the
// server shed the request, capped at RetryMax either way. Only errors
// that say nothing about the request itself retry (5xx, connection
// resets); client errors surface immediately — retrying a 4xx is load,
// not resilience.
func postWithRetry(httpc *http.Client, cfg loadConfig, rt *ring, hv *healthView, name, op string, body []byte, cr *clientResult, rng *rand.Rand) ([]byte, string, error) {
	owners := rt.owners(name, body)
	for attempt := 0; ; attempt++ {
		// Route to the first ring owner the client's health view trusts;
		// walking past the primary is a failover. All owners down falls
		// back to the primary (someone has to take the probe traffic).
		idx := owners[0]
		if hv != nil {
			for j, o := range owners {
				if hv.up(o) {
					idx = o
					if j > 0 {
						cr.reg.Counter("zipload.failovers").Inc()
					}
					break
				}
			}
		}
		if len(rt.urls) > 1 {
			cr.reg.Counter("zipload.route." + strconv.Itoa(idx)).Inc()
		}
		// Hedge target: the next distinct owner, budget permitting.
		hedgeIdx := -1
		if cfg.Hedge > 0 && cr.hedgesLeft > 0 {
			for _, o := range owners {
				if o != idx {
					hedgeIdx = o
					break
				}
			}
		}
		out, tp, transient, retryAfter, err := timedPost(httpc, cfg, rt, hv, name, op, body, cr, idx, hedgeIdx)
		if err == nil || !transient || attempt >= cfg.Retries {
			return out, tp, err
		}
		cr.reg.Counter("zipload.retries").Inc()
		backoff := cfg.RetryBase << uint(attempt)
		if retryAfter > 0 {
			if ra := time.Duration(retryAfter) * time.Second; ra > backoff {
				backoff = ra
			}
		}
		if cfg.RetryMax > 0 && backoff > cfg.RetryMax {
			backoff = cfg.RetryMax
		}
		if cfg.RetryBase > 0 {
			backoff += time.Duration(rng.Int63n(int64(cfg.RetryBase)))
		}
		time.Sleep(backoff)
	}
}

// timedPost issues one (possibly hedged) POST, counting every launched
// attempt as a request and observing the kept outcome's latency into the
// client registry (globally and per codec, so the report can break
// quantiles down by codec). All accounting — including the per-instance
// connfail/httperr breakdown and health-view feedback — happens here in
// the client goroutine; the racing attempts themselves are side-effect
// free. transient reports whether a failure is worth retrying (connection
// error or 5xx); retryAfter carries a shed response's Retry-After
// seconds. tp is the traceparent the server echoed ("" when tracing is
// off server-side).
func timedPost(httpc *http.Client, cfg loadConfig, rt *ring, hv *healthView, name, op string, body []byte, cr *clientResult, idx, hedgeIdx int) (out []byte, tp string, transient bool, retryAfter int, err error) {
	launched := func() {
		cr.requests++
		cr.reg.Counter("zipload.requests").Inc()
		cr.reg.Counter("zipload.codec." + name + "." + op).Inc()
	}
	launched()
	var win postOutcome
	if hedgeIdx >= 0 {
		var hedged bool
		var loser *postOutcome
		win, hedged, loser = hedgedRace(httpc, cfg.Hedge, rt.urls, name, op, body, idx, hedgeIdx)
		if hedged {
			launched()
			cr.hedgesLeft--
			cr.reg.Counter("zipload.hedges").Inc()
			if win.err == nil && win.idx == hedgeIdx {
				cr.reg.Counter("zipload.hedge_wins").Inc()
			}
		}
		if loser != nil {
			// A loser that demonstrably failed (not canceled) counts
			// against its instance like any solo transport failure.
			cr.reg.Counter("zipload.connfail." + strconv.Itoa(loser.idx)).Inc()
			hv.failure(loser.idx)
		}
	} else {
		win = postOnce(httpc, context.Background(), rt.urls[idx], name, op, body)
		win.idx = idx
	}
	if win.err != nil {
		cr.reg.Counter("zipload.connfail." + strconv.Itoa(win.idx)).Inc()
		hv.failure(win.idx)
		return nil, "", true, 0, win.err
	}
	hv.success(win.idx)
	tp = win.tp
	latUS := win.elapsed.Microseconds()
	cr.reg.Histogram("zipload.latency_us").Observe(latUS)
	cr.reg.Histogram("zipload.latency_us." + name).Observe(latUS)
	if win.status != http.StatusOK {
		cr.reg.Counter("zipload.httperr." + strconv.Itoa(win.idx)).Inc()
		if win.status == http.StatusServiceUnavailable && win.retryAfter > 0 {
			cr.reg.Counter("zipload.shed_seen").Inc()
		}
		return nil, tp, win.status >= 500, win.retryAfter,
			fmt.Errorf("status %d: %s%s", win.status, firstLine(win.out), traceSuffix(tp))
	}
	cr.reg.Counter("zipload.bytes_in").Add(uint64(len(body)))
	cr.reg.Counter("zipload.bytes_out").Add(uint64(len(win.out)))
	if cfg.Digest {
		xorDigest(&cr.digest, win.out)
	}
	if win.cacheHit {
		cr.reg.Counter("zipload.cache_hits_seen").Inc()
	}
	return win.out, tp, false, 0, nil
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 120 {
		s = s[:120]
	}
	return s
}

// fetchMetrics reads the server's /metrics snapshot; nil on any failure
// (the report degrades gracefully).
func fetchMetrics(httpc *http.Client, base string) *obs.Snapshot {
	resp, err := httpc.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil
	}
	return &snap
}

// report renders the human summary.
func (r *loadResult) report(w io.Writer, cfg loadConfig) {
	secs := r.Elapsed.Seconds()
	rps := 0.0
	if secs > 0 {
		rps = float64(r.Requests) / secs
	}
	fmt.Fprintf(w, "zipload: %d requests, %d errors in %.2fs (%.1f req/s)\n",
		r.Requests, r.Errors, secs, rps)
	fmt.Fprintf(w, "  codecs %s | clients %d | seed %d | verify %v\n",
		strings.Join(cfg.Codecs, ","), cfg.Clients, cfg.Seed, cfg.Verify)
	fmt.Fprintf(w, "  bytes: %d sent, %d received\n", r.BytesIn, r.BytesOut)
	snap := r.Registry.Snapshot()
	if retries := snap.Counters["zipload.retries"]; retries > 0 {
		fmt.Fprintf(w, "  retries: %d transient failures recovered by backoff\n", retries)
	}
	if puts := snap.Counters["zipload.pages.put"]; puts > 0 {
		fmt.Fprintf(w, "  pagestore: %d puts / %d verified gets\n",
			puts, snap.Counters["zipload.pages.get"])
	}
	if n := len(cfg.URLs); n > 1 {
		parts := make([]string, n)
		for i := range cfg.URLs {
			parts[i] = fmt.Sprintf("#%d:%d", i, snap.Counters["zipload.route."+strconv.Itoa(i)])
		}
		fmt.Fprintf(w, "  cluster: %d instances, consistent-hash routed (%s)\n", n, strings.Join(parts, " "))
		// Per-instance error breakdown, printed only for instances that
		// had any — a clean run's report is byte-identical to older builds.
		for i, u := range cfg.URLs {
			conn := snap.Counters["zipload.connfail."+strconv.Itoa(i)]
			httpe := snap.Counters["zipload.httperr."+strconv.Itoa(i)]
			if conn+httpe == 0 {
				continue
			}
			state := "recovered"
			for _, d := range r.Unreachable {
				if d == u {
					state = "STILL DOWN"
				}
			}
			fmt.Fprintf(w, "    #%d %s: %d conn failures (%s), %d http errors\n",
				i, u, conn, state, httpe)
		}
	}
	if fo, he := snap.Counters["zipload.failovers"], snap.Counters["zipload.hedges"]; fo+he > 0 {
		fmt.Fprintf(w, "  degraded mode: %d failovers, %d hedges (%d won by the hedge)\n",
			fo, he, snap.Counters["zipload.hedge_wins"])
	}
	if shed := snap.Counters["zipload.shed_seen"]; shed > 0 {
		fmt.Fprintf(w, "  shed: %d overload (503+Retry-After) responses honored in backoff\n", shed)
	}
	if r.ServerSnap != nil {
		hits := r.ServerSnap.Counters["server.cache.hits"]
		misses := r.ServerSnap.Counters["server.cache.misses"]
		rate := 0.0
		if hits+misses > 0 {
			rate = 100 * float64(hits) / float64(hits+misses)
		}
		fmt.Fprintf(w, "  server cache: %d hits / %d misses (%.1f%% hit rate), %d evictions\n",
			hits, misses, rate, r.ServerSnap.Counters["server.cache.evictions"])
		// Tier breakdown, present only when instances run composed
		// backends (zeros are elided — a plain LRU prints nothing here).
		for _, tier := range []string{"hot", "cold"} {
			th := r.ServerSnap.Counters["server.cache."+tier+".hits"]
			tm := r.ServerSnap.Counters["server.cache."+tier+".misses"]
			if th+tm == 0 {
				continue
			}
			fmt.Fprintf(w, "    %-5s tier: %d hits / %d misses (%.1f%% hit rate)\n",
				tier, th, tm, 100*float64(th)/float64(th+tm))
		}
	} else {
		fmt.Fprintf(w, "  server cache: /metrics not available\n")
	}
	if r.Digest != "" {
		fmt.Fprintf(w, "  response digest: %s\n", r.Digest)
	}
	if h, ok := snap.Histograms["zipload.latency_us"]; ok && h.Count > 0 {
		q := h.Quantiles(0.5, 0.95, 0.99)
		fmt.Fprintf(w, "  latency: n=%d mean=%.0fus p50=%.0fus p95=%.0fus p99=%.0fus min=%dus max=%dus\n",
			h.Count, float64(h.Sum)/float64(h.Count), q[0], q[1], q[2], h.Min, h.Max)
		fmt.Fprintf(w, "  latency histogram (us): %s\n", bucketLine(h))
		for _, name := range cfg.Codecs {
			hc, ok := snap.Histograms["zipload.latency_us."+name]
			if !ok || hc.Count == 0 {
				continue
			}
			qc := hc.Quantiles(0.5, 0.95, 0.99)
			fmt.Fprintf(w, "    %-6s n=%d mean=%.0fus p50=%.0fus p95=%.0fus p99=%.0fus\n",
				name, hc.Count, float64(hc.Sum)/float64(hc.Count), qc[0], qc[1], qc[2])
		}
	}
}

// bucketLine renders a histogram snapshot's non-empty buckets in ascending
// bound order as "lo:count" pairs.
func bucketLine(h obs.HistogramSnapshot) string {
	bounds := make([]uint64, 0, len(h.Buckets))
	for k := range h.Buckets {
		v, err := strconv.ParseUint(k, 10, 64)
		if err != nil {
			continue
		}
		bounds = append(bounds, v)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	parts := make([]string, len(bounds))
	for i, b := range bounds {
		parts[i] = fmt.Sprintf("%d:%d", b, h.Buckets[strconv.FormatUint(b, 10)])
	}
	return strings.Join(parts, " ")
}
