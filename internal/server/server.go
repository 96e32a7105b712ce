// Package server is the repository's network surface: zipserverd's HTTP
// compression service wrapping the three paper-faithful codecs
// (internal/compress/codec) behind POST /v1/{codec}/{compress|decompress}
// endpoints, with
//
//   - a per-request body cap enforced before buffering (413 via
//     Content-Length or an io.LimitReader, never reading past the cap),
//   - a content-addressed (SHA-256 keyed), byte-budgeted LRU response cache
//     with hit/miss/eviction counters and per-entry integrity checksums
//     (corrupted stored responses degrade to misses, never to wrong bytes),
//   - one work gate (gate.go) that codec and page work share: it caps
//     concurrent executions at an explicit -workers regardless of open
//     connections, sheds overload with 503 + Retry-After, and starts the
//     request deadline when work enters it (a cache hit never does),
//   - panic-recovery middleware (a crashing codec worker is a 500 and a
//     counter, never a dead process),
//   - a deterministic circuit breaker per codec/op: consecutive transient
//     codec failures trip it open, cached responses keep flowing while
//     uncached requests fast-fail 503 until a trial succeeds,
//   - named fault-injection points (internal/fault) on the codec workers,
//     the cache, and the gate's slot acquisition, so chaos runs (make
//     test-chaos) can rehearse all of the above deterministically,
//   - request metrics counted straight into the server's obs.Registry
//     (per-codec/op instruments resolved once in New), exposed at
//     GET /metrics as a canonical obs snapshot, plus GET /healthz for
//     liveness probes.
//
// Unlike the simulation layers, the server's registry knowingly contains a
// wall-clock-derived histogram (server.request_latency_us): a live network
// service has no simulation clock, and observed latency is exactly what a
// load test wants. Everything else in the snapshot (request, byte, cache
// counters) is deterministic for a fixed request sequence, and every
// resilience counter is registered lazily on its first event, so a run with
// faults disarmed produces a snapshot byte-identical to a fault-free build.
//
// The deployment shape is deliberate: real compression side channels live
// inside shared services (Schwarzl et al.; Debreach — see PAPERS.md), and a
// cross-request, content-addressed cache gives Attack-2-style fingerprinting
// a realistic setting to exercise in later PRs.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/zipchannel/zipchannel/internal/compress/codec"
	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/pagestore"
)

// Version identifies the server build in /healthz; bumped when the HTTP
// surface changes shape.
const Version = "0.11.0"

// Default limits; all overridable via Config.
const (
	DefaultMaxBodyBytes = 8 << 20  // 8 MiB per request body
	DefaultCacheBytes   = 64 << 20 // 64 MiB of cached responses
)

// The codec failure policy: one fixed policy for every server, not a
// deployment setting.
const (
	// requestTimeout bounds one request's gate work: queue wait,
	// execution, and transient retries.
	requestTimeout = 30 * time.Second
	// codecRetries is how many times a transient codec failure (injected
	// fault, codec panic, failed self-check) is retried within one
	// request before it becomes a 500.
	codecRetries = 2
	// breakerThreshold is how many consecutive requests ending in a
	// transient codec failure (all attempts spent) open the circuit
	// breaker for that codec/op.
	breakerThreshold = 5
	// breakerCooldown is how many uncached requests an open breaker
	// rejects before admitting a trial request.
	breakerCooldown = 16
)

// errTransient classifies failures that say nothing about the input —
// injected faults, codec panics, failed self-checks. They are retried
// within the request deadline and, if persistent, surface as 500s (and
// breaker failures) rather than 400s.
var errTransient = errors.New("transient codec failure")

// errBreakerOpen marks a request rejected by an open circuit breaker, so
// a singleflight follower sharing the leader's outcome maps it to the
// same 503 the leader sent.
var errBreakerOpen = errors.New("circuit open")

// Config parameterizes a Server. The zero value is fully usable: default
// caps, GOMAXPROCS workers, a fresh registry, no fault injection.
type Config struct {
	// MaxBodyBytes caps each request body; <= 0 means DefaultMaxBodyBytes.
	// Oversized requests get 413.
	MaxBodyBytes int64
	// CacheBytes budgets the response cache; 0 means DefaultCacheBytes,
	// negative disables caching entirely. Ignored when Cache is set.
	CacheBytes int64
	// Cache overrides the default single-LRU backend with any
	// CacheBackend composition (disk, tiered — see DESIGN.md §10). Nil
	// means a byte-budgeted LRU of CacheBytes.
	Cache CacheBackend
	// CacheMaxAge is the max-age (seconds) advertised in the
	// Cache-Control response header on /v1 responses; 0 means
	// DefaultCacheMaxAge, negative disables the header.
	CacheMaxAge int
	// Workers caps concurrent codec executions and page operations; <= 0
	// means GOMAXPROCS.
	Workers int
	// QueueLimit caps how many requests (codec executions and page
	// operations) may wait for a worker beyond the ones executing; past
	// it the gate sheds with 503 + Retry-After instead of queueing
	// (DESIGN.md §13). <= 0 means DefaultQueueLimitFactor × Workers.
	QueueLimit int
	// Registry receives every request's metrics and serves /metrics.
	// Created if nil.
	Registry *obs.Registry
	// Faults arms deterministic fault injection at the server's named
	// points (server.codec.{compress,decompress}, server.cache.{get,put},
	// server.gate.acquire). Nil disables injection entirely and leaves
	// every output byte identical to a fault-free build. Armed, it also
	// makes the server verify every compress response by decompressing
	// it before it leaves the process, so corruption can only reach
	// clients as a 500, never as wrong bytes.
	Faults *fault.Registry
	// Tracer records a span tree per /v1 request (server.request plus
	// gate/breaker/codec/cache children), honoring incoming traceparent
	// headers and echoing the request's traceparent on responses. Nil
	// disables tracing entirely — a nil tracer is a total no-op, so the
	// registry and snapshots stay byte-identical to an untraced build.
	Tracer *obs.Tracer
	// AccessLog, when non-nil, receives one NDJSON record per /v1
	// request (trace ID, codec, op, status, byte counts, sim steps, wall
	// latency, cache tier, breaker state, gate wait).
	AccessLog io.Writer
	// EnablePprof mounts net/http/pprof under GET /debug/pprof/. Off by
	// default: profiling endpoints are opt-in on a production surface.
	EnablePprof bool
	// SLOLatency is the per-request wall-latency objective backing the
	// server.slo.* counters; 0 means DefaultSLOLatency, negative
	// disables latency-based breach counting (5xx still breaches).
	SLOLatency time.Duration
	// PageStore, when non-nil, mounts the compressed page store on
	// PUT/GET /v1/pages/{id} (see pages.go). The store brings its own
	// obs registry and fault points via pagestore.Config; pass the same
	// Registry/Faults there to fold them into this server's surface.
	PageStore *pagestore.Store
}

// Server is the http.Handler. Create with New.
type Server struct {
	maxBody    int64
	reg        *obs.Registry
	gate       *gate
	cache      CacheBackend
	flight     flightGroup
	maxAge     int
	mux        *http.ServeMux
	retries    int // transient-failure retries per request: codecRetries
	selfCheck  bool
	tracer     *obs.Tracer
	accessSink *obs.TraceSink
	sloLatency time.Duration
	pages      *pagestore.Store
	started    time.Time
	// simSteps is the server's simulation clock: one step per /v1
	// request accepted. It stamps trace events, span sim durations, and
	// the /healthz uptime — a logical clock that is a pure function of
	// the request sequence, unlike wall time.
	simSteps atomic.Uint64

	// Fault points (nil when injection is disabled; nil points are clean).
	fpCompress   *fault.Point
	fpDecompress *fault.Point
	fpCacheGet   *fault.Point
	fpCachePut   *fault.Point

	// ops holds each (codec, op) pair's instruments and, for codecs, its
	// circuit breaker, resolved once in New.
	ops map[opKey]*opMetrics
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.SLOLatency == 0 {
		cfg.SLOLatency = DefaultSLOLatency
	}
	if cfg.CacheMaxAge == 0 {
		cfg.CacheMaxAge = DefaultCacheMaxAge
	} else if cfg.CacheMaxAge < 0 {
		cfg.CacheMaxAge = 0
	}
	cache := cfg.Cache
	if cache == nil && cfg.CacheBytes > 0 {
		cache = NewLRUBackend(cfg.CacheBytes, cfg.Registry, "server.cache")
	}
	s := &Server{
		maxBody:    cfg.MaxBodyBytes,
		reg:        cfg.Registry,
		cache:      cache,
		maxAge:     cfg.CacheMaxAge,
		mux:        http.NewServeMux(),
		retries:    codecRetries,
		selfCheck:  cfg.Faults != nil,
		tracer:     cfg.Tracer,
		sloLatency: cfg.SLOLatency,
		pages:      cfg.PageStore,
		started:    time.Now(),
	}
	s.reg.SetSimClock(s.simSteps.Load)
	if cfg.AccessLog != nil {
		s.accessSink = obs.NewTraceSink(cfg.AccessLog)
	}
	if cfg.Faults != nil {
		cfg.Faults.AttachObs(cfg.Registry)
		s.fpCompress = cfg.Faults.Point("server.codec.compress")
		s.fpDecompress = cfg.Faults.Point("server.codec.decompress")
		s.fpCacheGet = cfg.Faults.Point("server.cache.get")
		s.fpCachePut = cfg.Faults.Point("server.cache.put")
	}
	s.gate = newGate(cfg.Workers, cfg.QueueLimit, cfg.Registry, cfg.Faults, cfg.Tracer)
	// Every operational series (cache, breaker, SLO, per-codec request
	// counters) and every codec/op breaker is declared up front so
	// scrapers and probes see them from the first look; armed fault
	// points are declared by AttachObs above.
	s.declareMetrics()
	s.mux.HandleFunc("POST /v1/{codec}/{op}", s.handleCodec)
	if s.pages != nil {
		s.mux.HandleFunc("PUT /v1/pages/{id}", s.handlePagePut)
		s.mux.HandleFunc("GET /v1/pages/{id}", s.handlePageGet)
	}
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Registry returns the server's metric registry, which every request
// counts into and /metrics serves.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Workers reports the gate's concurrency cap.
func (s *Server) Workers() int { return cap(s.gate.slots) }

// ServeHTTP applies the resilience and observability middleware — panic
// recovery and (for /v1 requests) trace context, access logging, and SLO
// accounting — then dispatches to the server's routes. A panic anywhere
// below (a codec worker, an injected fault, a bug) is converted into a
// 500 and a server.errors.panic counter; the process never dies with a
// request.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			s.reg.Counter("server.errors.panic").Inc()
			http.Error(w, fmt.Sprintf("internal error: %v", v), http.StatusInternalServerError)
		}
	}()
	if !strings.HasPrefix(r.URL.Path, "/v1/") {
		// Scrapes and probes stay outside the traced path: they advance
		// no sim step, mint no trace, and write no access-log line.
		s.mux.ServeHTTP(w, r)
		return
	}
	s.serveTraced(w, r)
}

// serveTraced wraps one /v1 request in the observability envelope: one
// sim step, a server.request root span continuing any incoming
// traceparent (echoed back on the response), a status-recording writer,
// and — via finishRequest — the latency histogram with trace exemplar,
// SLO counters, and the access-log record. Panics are contained here so
// the access log still records the 500.
func (s *Server) serveTraced(w http.ResponseWriter, r *http.Request) {
	s.simSteps.Add(1)
	start := time.Now()
	ctx := r.Context()
	if tp := r.Header.Get("traceparent"); tp != "" {
		if sc, ok := obs.ParseTraceparent(tp); ok {
			ctx = obs.ContextWithRemote(ctx, sc)
		}
	}
	ctx, sp := s.tracer.StartSpan(ctx, "server.request")
	ri := &reqInfo{span: sp}
	if sp != nil {
		w.Header().Set("Traceparent", sp.Context().Traceparent())
	}
	ctx = context.WithValue(ctx, reqInfoKey{}, ri)
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	func() {
		defer func() {
			if v := recover(); v != nil {
				s.reg.Counter("server.errors.panic").Inc()
				http.Error(rec, fmt.Sprintf("internal error: %v", v), http.StatusInternalServerError)
			}
		}()
		s.mux.ServeHTTP(rec, r.WithContext(ctx))
	}()
	s.finishRequest(ri, rec, time.Since(start))
}

// handleCodec serves POST /v1/{codec}/{compress|decompress}: stream in the
// body (capped), consult the content-addressed cache, otherwise run the
// codec under the worker gate — retrying transient failures within the
// request deadline and feeding the outcome to the codec's circuit breaker —
// and stream the result back. Metrics go straight into the server registry,
// the codec/op series through the handles resolved in New.
func (s *Server) handleCodec(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("codec")
	op := r.PathValue("op")
	cd, ok := codec.Lookup(name)
	if !ok {
		s.reg.Counter("server.errors.unknown_codec").Inc()
		http.Error(w, fmt.Sprintf("unknown codec %q (have %s)", name, codec.NamesString()),
			http.StatusNotFound)
		return
	}
	var run func([]byte) ([]byte, error)
	var fp *fault.Point
	switch op {
	case "compress":
		run, fp = cd.Compress, s.fpCompress
	case "decompress":
		run, fp = cd.Decompress, s.fpDecompress
	default:
		s.reg.Counter("server.errors.unknown_op").Inc()
		http.Error(w, fmt.Sprintf("unknown operation %q (have compress, decompress)", op),
			http.StatusNotFound)
		return
	}

	ri := s.routed(r, s.ops[opKey{name, op}])

	level, err := parseLevel(r.Header.Get(LevelHeader))
	if err != nil {
		s.reg.Counter("server.errors.bad_level").Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	s.reg.Counter("server.bytes_in").Add(uint64(len(body)))
	ri.bytesIn = len(body)

	// The content address doubles as the strong ETag: a deterministic
	// codec makes the hash of the request a validator of the response,
	// so If-None-Match revalidation costs zero codec work.
	key := cacheKey(op, name, level, body)
	etag := etagFor(key)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		s.reg.Counter("server.http.not_modified").Inc()
		ri.cacheTier = "revalidated"
		s.setCacheHeaders(w.Header(), name, etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}

	reqCC := parseCacheControl(r.Header.Get("Cache-Control"))
	useCache := s.cache != nil && !reqCC.NoStore
	lookup := useCache && !reqCC.NoCache
	if in := s.fpCacheGet.Hit(); in.Fired() {
		switch in.Kind {
		case fault.KindCorrupt:
			// A storage bit-flip lands on this key's entry; the
			// integrity check below turns it into a detected corruption
			// + miss.
			if s.cache != nil {
				s.cache.CorruptStored(key, in)
			}
		default:
			// Cache backend unavailable: degrade to a full bypass for
			// this request (no lookup, no store) instead of failing it.
			useCache, lookup = false, false
			ri.cacheTier = "bypass"
			s.reg.Counter("server.cache.bypass").Inc()
		}
	}
	var out []byte
	cached := false
	if lookup {
		_, csp := s.tracer.StartSpan(r.Context(), "server.cache.lookup")
		out, cached = s.cache.Get(key)
		csp.SetAttr("hit", cached)
		csp.End()
		if cached {
			ri.cacheTier = "hit"
		} else {
			ri.cacheTier = "miss"
		}
	}
	if !cached {
		// Miss path: coalesce concurrent misses on this key so a storm
		// costs one codec execution; the leader runs breaker + codec +
		// store, followers share the outcome (including failure).
		flightOut, shared, codecErr := s.flight.do(key, func() ([]byte, error) {
			return s.missOnce(r, ri, cd, fp, run, body, key, useCache)
		})
		if shared {
			s.reg.Counter("server.flight.shared").Inc()
			ri.cacheTier = "coalesced"
		}
		out = flightOut
		if codecErr != nil {
			switch {
			case errors.Is(codecErr, errShed):
				ri.cacheTier = "shed"
				s.writeShed(w, name+" "+op)
			case errors.Is(codecErr, errBreakerOpen):
				s.reg.Counter("server.breaker.rejected").Inc()
				// The breaker's cooldown is counted in requests, not
				// seconds; 1s is the floor hint for a backoff client.
				w.Header().Set("Retry-After", "1")
				http.Error(w, fmt.Sprintf("%s %s temporarily unavailable (circuit open)", name, op),
					http.StatusServiceUnavailable)
			case errors.Is(codecErr, context.DeadlineExceeded) || errors.Is(codecErr, context.Canceled):
				// Load, not codec health: no breaker record.
				s.reg.Counter("server.errors.deadline").Inc()
				http.Error(w, "request deadline exceeded", http.StatusGatewayTimeout)
			case errors.Is(codecErr, errTransient):
				s.reg.Counter("server.errors.transient").Inc()
				http.Error(w, fmt.Sprintf("%s %s: %v", name, op, codecErr), http.StatusInternalServerError)
			default:
				// Genuine codec error: the input is bad, the codec is
				// healthy.
				s.reg.Counter("server.errors.codec").Inc()
				http.Error(w, fmt.Sprintf("%s %s: %v", name, op, codecErr), http.StatusBadRequest)
			}
			return
		}
	}

	hdr := w.Header()
	hdr.Set("Content-Type", "application/octet-stream")
	s.setCacheHeaders(hdr, name, etag)
	switch {
	case cached:
		hdr.Set("X-Cache", "HIT")
	case ri.cacheTier == "coalesced":
		hdr.Set("X-Cache", "COALESCED")
	default:
		hdr.Set("X-Cache", "MISS")
	}
	hdr.Set("Content-Length", fmt.Sprint(len(out)))
	if _, err := w.Write(out); err != nil {
		s.reg.Counter("server.errors.write_response").Inc()
		return
	}
	s.reg.Counter("server.bytes_out").Add(uint64(len(out)))
}

// setCacheHeaders stamps the HTTP cache envelope on a cacheable /v1
// response: the strong ETag, the freshness lifetime, and the Vary
// partition (the codec level header; the codec itself is in the URL, so
// the URL already partitions on it).
func (s *Server) setCacheHeaders(hdr http.Header, name, etag string) {
	hdr.Set("X-Codec", name)
	hdr.Set("ETag", etag)
	hdr.Set("Vary", LevelHeader)
	if s.maxAge > 0 {
		hdr.Set("Cache-Control", fmt.Sprintf("public, max-age=%d", s.maxAge))
	}
}

// missOnce is the singleflight leader's path for one cache miss: breaker
// admission, codec execution with retries, breaker bookkeeping, and the
// write-back to the cache hierarchy. Followers coalesced onto this call
// share its return value verbatim.
func (s *Server) missOnce(r *http.Request, ri *reqInfo, cd codec.Codec, fp *fault.Point,
	run func([]byte) ([]byte, error), body []byte, key Key, store bool) ([]byte, error) {
	m := ri.ops
	bk := m.breaker
	_, bsp := s.tracer.StartSpan(r.Context(), "server.breaker.check")
	allowed := bk.allow()
	st := bk.current()
	ri.breaker = st.String()
	bsp.SetAttr("state", ri.breaker)
	bsp.SetAttr("allowed", allowed)
	bsp.End()
	m.breakerState.Set(float64(st))
	if !allowed {
		return nil, errBreakerOpen
	}
	out, codecErr := s.runCodec(r.Context(), cd, m.op, fp, run, body)
	switch {
	case errors.Is(codecErr, errTransient):
		if bk.record(false) {
			s.reg.Counter("server.breaker.trips").Inc()
		}
	case errors.Is(codecErr, context.DeadlineExceeded), errors.Is(codecErr, context.Canceled),
		errors.Is(codecErr, errShed):
		// Deadline and shed rejections are load, not codec health —
		// they feed neither side of the breaker.
	default:
		// Success, or a genuine codec error (bad input): the codec is
		// healthy.
		bk.record(true)
	}
	st = bk.current()
	ri.breaker = st.String()
	m.breakerState.Set(float64(st))
	if codecErr != nil {
		return nil, codecErr
	}
	if store {
		if in := s.fpCachePut.Hit(); in.Fired() {
			// Store unavailable: serve the response uncached.
			s.reg.Counter("server.cache.bypass").Inc()
		} else {
			_, psp := s.tracer.StartSpan(r.Context(), "server.cache.store")
			s.cache.Put(key, out)
			psp.SetAttr("bytes", len(out))
			psp.End()
		}
	}
	return out, nil
}

// readBody streams in at most maxBody bytes, rejecting oversized requests
// with 413 before buffering past the cap: a declared Content-Length above
// the limit is refused without reading the body at all, and chunked or
// lying uploads are cut off by an io.LimitReader one byte past the cap.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	tooLarge := func() {
		s.reg.Counter("server.errors.body_too_large").Inc()
		http.Error(w, fmt.Sprintf("request body exceeds %d bytes", s.maxBody),
			http.StatusRequestEntityTooLarge)
	}
	if r.ContentLength > s.maxBody {
		tooLarge()
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.maxBody+1))
	if err != nil {
		s.reg.Counter("server.errors.read_body").Inc()
		http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if int64(len(body)) > s.maxBody {
		tooLarge()
		return nil, false
	}
	return body, true
}

// runCodec executes one codec operation under the work gate, retrying
// transient failures (injected faults, codec panics, failed self-checks,
// injected slot-acquisition errors) up to s.retries times while the
// request deadline lives. Retries hold one admission and take a fresh
// slot each. Genuine codec errors (bad input) are returned on the first
// attempt — retrying a deterministic parse failure only burns a slot.
func (s *Server) runCodec(ctx context.Context, cd codec.Codec, op string,
	fp *fault.Point, run func([]byte) ([]byte, error), body []byte) ([]byte, error) {
	ctx, cancel, err := s.gate.enter(ctx)
	if err != nil {
		return nil, err
	}
	defer s.gate.leave(cancel)
	for attempt := 0; ; attempt++ {
		var out []byte
		err := s.gate.do(ctx, "server.codec.run", func(sp *obs.TraceSpan) (err error) {
			sp.SetAttr("op", op)
			sp.SetAttr("attempt", attempt)
			out, err = s.execOnce(fp, run, body, sp)
			return err
		})
		if err == nil && s.selfCheck && op == "compress" {
			if back, derr := cd.Decompress(out); derr != nil || !bytes.Equal(back, body) {
				s.reg.Counter("server.errors.selfcheck").Inc()
				err = fmt.Errorf("%w: compress output failed decompression self-check", errTransient)
			}
		}
		if err == nil {
			return out, nil
		}
		if !errors.Is(err, errTransient) || attempt >= s.retries || ctx.Err() != nil {
			return nil, err
		}
		s.reg.Counter("server.codec.retries").Inc()
	}
}

// execOnce runs the codec once inside a worker slot, applying the codec
// fault point; the gate contains its panics, injected or genuine, as
// transient errors so the retry loop and the breaker see them instead of
// the client. A fired injection is recorded on the codec-run span
// (nil-safe).
func (s *Server) execOnce(fp *fault.Point, run func([]byte) ([]byte, error), body []byte,
	sp *obs.TraceSpan) ([]byte, error) {
	s.reg.Counter("server.codec.executions").Inc()
	in := fp.Hit()
	if in.Fired() {
		sp.SetAttr("fault", in.Kind.String())
	}
	switch in.Kind {
	case fault.KindPanic:
		panic(fmt.Sprintf("fault: injected panic at %s", in.Point))
	case fault.KindError:
		return nil, fmt.Errorf("%w: %v", errTransient, in.Error())
	case fault.KindLatency:
		time.Sleep(time.Duration(in.Param) * time.Microsecond)
	}
	out, err := run(body)
	if err != nil {
		return nil, err
	}
	// Injected output corruption: the compress self-check (or, for cached
	// entries, the integrity checksum) is what must catch this.
	return in.CorruptCopy(out), nil
}

// writeShed answers a request the gate shed: 503 with a drain-time
// Retry-After hint, so a retrying client's next attempt lands when a
// slot is plausible.
func (s *Server) writeShed(w http.ResponseWriter, what string) {
	w.Header().Set("Retry-After", strconv.Itoa(s.gate.retryAfterSeconds()))
	http.Error(w, what+" overloaded (queue full), retry later", http.StatusServiceUnavailable)
}

// handleMetrics serves the server registry: the canonical obs snapshot by
// default (byte-identical to earlier builds), or Prometheus text
// exposition with ?format=prom.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch f := r.URL.Query().Get("format"); f {
	case "", "json":
		b, err := s.reg.Snapshot().MarshalIndent()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	case "prom":
		w.Header().Set("Content-Type", obs.PromContentType)
		if err := s.reg.WritePrometheus(w); err != nil {
			s.reg.Counter("server.errors.write_response").Inc()
		}
	default:
		http.Error(w, fmt.Sprintf("unknown metrics format %q (have json, prom)", f),
			http.StatusBadRequest)
	}
}

// healthResponse is the GET /healthz body: build identity, logical (sim
// step) and wall uptime, per-codec/op breaker states, and cache occupancy.
type healthResponse struct {
	Status         string            `json:"status"`
	Version        string            `json:"version"`
	Go             string            `json:"go"`
	Codecs         []string          `json:"codecs"`
	Workers        int               `json:"workers"`
	UptimeSimSteps uint64            `json:"uptime_sim_steps"`
	UptimeSeconds  float64           `json:"uptime_seconds"`
	Breakers       map[string]string `json:"breakers"`
	Overload       healthOverload    `json:"overload"`
	Cache          healthCache       `json:"cache"`
	Pages          *healthPages      `json:"pages,omitempty"`
}

type healthCache struct {
	Enabled bool   `json:"enabled"`
	Backend string `json:"backend,omitempty"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
}

// healthPages reports the mounted page store; absent when the server
// runs without one, keeping pre-pagestore health bodies unchanged.
type healthPages struct {
	PageSize  int   `json:"page_size"`
	Pages     int   `json:"pages"`
	PoolBytes int64 `json:"pool_bytes"`
	SimSteps  int64 `json:"sim_steps"`
}

// handleHealthz is the liveness probe: a structured JSON health report.
// Every codec/op breaker is listed from the first probe, keyed
// "<codec>/<op>"; states are "closed", "open", or "trial".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	breakers := map[string]string{}
	for _, m := range s.ops {
		if m.breaker != nil {
			breakers[m.codec+"/"+m.op] = m.breaker.current().String()
		}
	}
	cacheHealth := healthCache{}
	if s.cache != nil {
		entries, storedBytes := s.cache.Stats()
		cacheHealth = healthCache{
			Enabled: true,
			Backend: s.cache.Name(),
			Entries: entries,
			Bytes:   storedBytes,
		}
	}
	resp := healthResponse{
		Status:         "ok",
		Version:        Version,
		Go:             runtime.Version(),
		Codecs:         codec.Names(),
		Workers:        cap(s.gate.slots),
		UptimeSimSteps: s.simSteps.Load(),
		UptimeSeconds:  time.Since(s.started).Seconds(),
		Breakers:       breakers,
		Overload:       s.gate.health(),
		Cache:          cacheHealth,
	}
	if s.pages != nil {
		resp.Pages = &healthPages{
			PageSize:  s.pages.PageSize(),
			Pages:     s.pages.Pages(),
			PoolBytes: s.pages.PoolBytes(),
			SimSteps:  s.pages.Steps(),
		}
	}
	b, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}
