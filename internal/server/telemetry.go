package server

// This file is the server's request-scoped observability: the
// per-request info carrier the middleware and handlers share, the
// structured NDJSON access log, SLO accounting, and the startup metric
// declarations and per-(codec, op) handles that make every operational
// series visible (at zero) from the first scrape.

import (
	"context"
	"net/http"
	"time"

	"github.com/zipchannel/zipchannel/internal/compress/codec"
	"github.com/zipchannel/zipchannel/internal/obs"
)

// SLO defaults; overridable via Config.
const (
	// DefaultSLOLatency is the per-request wall-latency objective: a /v1
	// request slower than this (or failing with a 5xx) is an SLO breach.
	DefaultSLOLatency = 500 * time.Millisecond
	// DefaultSLOBudget is the tolerated breach ratio (1%): the burn-rate
	// gauge reports observed breach ratio divided by this budget, so
	// burn rate > 1 means the error budget is being consumed faster than
	// it refills.
	DefaultSLOBudget = 0.01
)

// reqInfo is the per-request carrier threaded through the handler chain
// via context: the middleware creates it, handlers fill it in, and the
// middleware turns it into the access-log record, the SLO counters, and
// the root span's attributes on the way out.
type reqInfo struct {
	span    *obs.TraceSpan // root server.request span (nil when tracing off)
	ops     *opMetrics     // the routed (codec, op) pair; nil before routing
	bytesIn int
	// cacheTier is "hit", "miss", "bypass", "revalidated" (304),
	// "coalesced" (shared a concurrent miss), "shed" (refused by
	// admission), or "" when the request never reached a cache decision.
	cacheTier string
	breaker   string // breaker state observed at the admission decision
	gateWait  time.Duration
}

// opKey names one routed (codec, op) pair; pages routes use codec
// "pages" with op "put" or "get".
type opKey struct{ codec, op string }

// opMetrics is one (codec, op) pair's instruments, resolved once in New
// so the request path never builds a metric name.
type opMetrics struct {
	codec, op    string
	requests     *obs.Counter // server.codec.<c>.<op>
	good, breach *obs.Counter // server.slo.<c>.<op>.{good,breach}
	burnRate     *obs.Gauge   // server.slo.<c>.<op>.burn_rate
	breaker      *breaker     // guards the codec; nil for pages
	breakerState *obs.Gauge   // server.breaker.<c>.<op>.state; nil for pages
}

type reqInfoKey struct{}

// reqInfoFrom returns the request's carrier, or nil outside the traced
// path (so handler instrumentation is nil-safe by construction).
func reqInfoFrom(ctx context.Context) *reqInfo {
	ri, _ := ctx.Value(reqInfoKey{}).(*reqInfo)
	return ri
}

// routed files the request under its (codec, op) pair and counts it,
// returning the request's carrier (a fresh one on direct mux dispatch in
// tests, keeping the handlers nil-safe).
func (s *Server) routed(r *http.Request, m *opMetrics) *reqInfo {
	ri := reqInfoFrom(r.Context())
	if ri == nil {
		ri = &reqInfo{}
	}
	ri.ops = m
	s.reg.Counter("server.requests").Inc()
	m.requests.Inc()
	return ri
}

// statusRecorder captures the status code and body bytes a handler
// writes, for the access log and SLO accounting.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// declareMetrics pre-registers every operational series the server can
// emit, so counters appear at zero on the first scrape instead of
// popping into existence mid-run (a rate() over a counter needs its
// zero point). Fault counters are declared separately by
// fault.Registry.AttachObs — but only for armed points, keeping
// disarmed runs byte-identical.
func (s *Server) declareMetrics() {
	s.reg.DeclareCounters(
		"server.requests",
		"server.bytes_in",
		"server.bytes_out",
		"server.cache.hits",
		"server.cache.misses",
		"server.cache.evictions",
		"server.breaker.rejected",
		"server.breaker.trips",
		"server.codec.executions",
		"server.flight.shared",
		"server.http.not_modified",
	)
	s.reg.DeclareGauges("server.cache.bytes", "server.cache.entries")
	s.reg.DeclareHistograms("server.request_latency_us")
	s.ops = map[opKey]*opMetrics{}
	for _, name := range codec.Names() {
		for _, op := range []string{"compress", "decompress"} {
			s.resolveOp(name, op, true)
		}
	}
	if s.pages != nil {
		for _, op := range []string{"put", "get"} {
			s.resolveOp("pages", op, false)
		}
	}
}

// resolveOp registers one (codec, op) pair's request, SLO and (for
// codecs, which run behind a breaker) breaker-state series, and files
// their handles — with the codec's breaker — under s.ops. It is the only
// place these names are built.
func (s *Server) resolveOp(name, op string, withBreaker bool) {
	key := name + "." + op
	m := &opMetrics{
		codec:    name,
		op:       op,
		requests: s.reg.Counter("server.codec." + key),
		good:     s.reg.Counter("server.slo." + key + ".good"),
		breach:   s.reg.Counter("server.slo." + key + ".breach"),
		burnRate: s.reg.Gauge("server.slo." + key + ".burn_rate"),
	}
	if withBreaker {
		m.breaker = &breaker{}
		m.breakerState = s.reg.Gauge("server.breaker." + key + ".state")
	}
	s.ops[opKey{name, op}] = m
}

// finishRequest closes out one /v1 request: latency histogram (with the
// trace ID as exemplar), SLO counters and burn rate, root-span
// attributes, and the access-log record. Runs for every /v1 request,
// success or failure.
func (s *Server) finishRequest(ri *reqInfo, rec *statusRecorder, lat time.Duration) {
	latUS := lat.Microseconds()
	s.reg.Histogram("server.request_latency_us").ObserveExemplar(latUS, ri.span.TraceIDString())

	codecName, opName := "", ""
	if m := ri.ops; m != nil {
		codecName, opName = m.codec, m.op
		if (s.sloLatency > 0 && lat > s.sloLatency) || rec.status >= 500 {
			m.breach.Inc()
		} else {
			m.good.Inc()
		}
		good, bad := m.good.Value(), m.breach.Value()
		ratio := float64(bad) / float64(good+bad)
		m.burnRate.Set(ratio / DefaultSLOBudget)
	}

	if sp := ri.span; sp != nil {
		sp.SetAttr("codec", codecName)
		sp.SetAttr("op", opName)
		sp.SetAttr("status", rec.status)
		sp.SetAttr("bytes_in", ri.bytesIn)
		sp.SetAttr("bytes_out", rec.bytes)
		if ri.cacheTier != "" {
			sp.SetAttr("cache", ri.cacheTier)
		}
		sp.End()
	}

	if s.accessSink != nil {
		s.accessSink.Emit("access", s.simSteps.Load(), map[string]any{
			"trace":        ri.span.TraceIDString(),
			"codec":        codecName,
			"op":           opName,
			"status":       rec.status,
			"bytes_in":     ri.bytesIn,
			"bytes_out":    rec.bytes,
			"sim_steps":    s.simSteps.Load(),
			"wall_us":      latUS,
			"cache":        ri.cacheTier,
			"breaker":      ri.breaker,
			"gate_wait_us": ri.gateWait.Microseconds(),
		})
	}
}
