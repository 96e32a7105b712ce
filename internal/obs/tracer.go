package obs

import (
	"context"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the telemetry layer's one span type, TraceSpan, a timer
// with a simulation-clock / wall-clock dual. Ending a span increments
// "<name>.calls", observes the elapsed sim cycles into a snapshot-visible
// "<name>.sim" histogram when a simulation clock is installed, and adds
// wall nanoseconds to the hidden wall table. Spans come from two places:
//
//   - Registry.StartSpan, a flat timer with no identity (the attack and
//     dataset phases), and
//   - Tracer.StartSpan, a node of a span tree with W3C-style trace/span
//     IDs, propagated across process boundaries via the `traceparent`
//     header and across function boundaries via context.Context, so the
//     NDJSON sink records a linkable tree.
//
// The determinism contract (DESIGN.md §9):
//
//   - A nil *Tracer is a total no-op: StartSpan returns the context
//     unchanged and a nil *TraceSpan whose every method is a no-op, so a
//     run with tracing off touches neither the registry nor the sink and
//     its snapshots stay byte-identical to a build without tracing.
//   - IDs come from a seeded splitmix64 stream (IDSource), so a
//     sequential run with a fixed seed produces a reproducible ID
//     sequence; concurrent runs still get unique IDs.
//   - Only sim-clock durations enter snapshots; wall durations go to the
//     wall table and the trace sink, never the canonical snapshot.

// TraceID is a 16-byte W3C trace identifier (all-zero = absent).
type TraceID [16]byte

// SpanID is an 8-byte W3C span identifier (all-zero = absent).
type SpanID [8]byte

// String renders the 32-hex-digit form.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the 16-hex-digit form.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// SpanContext is the propagated identity of one span: the trace it
// belongs to and its own ID. It is what crosses process boundaries in a
// traceparent header.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether both IDs are non-zero (the W3C requirement).
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// Traceparent renders the W3C header form
// "00-<32 hex trace>-<16 hex span>-01" (version 00, sampled flag set).
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.Trace.String() + "-" + sc.Span.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header. It accepts any
// version byte but ff (per spec, a later version is parsed as version 00
// and may append '-'-separated fields after the flags) and rejects
// malformed lengths, non-hex digits, and all-zero IDs.
func ParseTraceparent(h string) (SpanContext, bool) {
	// version(2) - trace(32) - span(16) - flags(2)
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return SpanContext{}, false
	}
	if len(h) > 55 && (h[:2] == "00" || h[55] != '-') {
		return SpanContext{}, false // version 00 must be exactly 55 chars
	}
	var sc SpanContext
	if _, err := hex.Decode(sc.Trace[:], []byte(h[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.Span[:], []byte(h[36:52])); err != nil {
		return SpanContext{}, false
	}
	if !isHex(h[:2]) || !isHex(h[53:55]) || h[:2] == "ff" {
		return SpanContext{}, false
	}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// IDSource generates trace and span IDs from a seeded splitmix64 stream.
// A fixed seed gives a reproducible ID sequence under sequential use
// (concurrent callers still get unique IDs, just in racy order), so trace
// output in tests and seeded runs is stable without any global state.
type IDSource struct {
	state atomic.Uint64
}

// NewIDSource creates a source seeded with seed.
func NewIDSource(seed int64) *IDSource {
	s := &IDSource{}
	s.state.Store(uint64(seed) ^ 0x9e3779b97f4a7c15)
	return s
}

// next is one splitmix64 step: an atomic stride add plus a finalizer, so
// concurrent callers draw distinct values without locking.
func (s *IDSource) next() uint64 {
	z := s.state.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// TraceID draws a non-zero 16-byte trace ID.
func (s *IDSource) TraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		putUint64(t[:8], s.next())
		putUint64(t[8:], s.next())
	}
	return t
}

// SpanID draws a non-zero 8-byte span ID.
func (s *IDSource) SpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		putUint64(id[:], s.next())
	}
	return id
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
}

// Tracer mints TraceSpans against one registry. A nil Tracer is a total
// no-op — the disarmed state costs nothing and writes nothing.
type Tracer struct {
	reg *Registry
	ids *IDSource
}

// NewTracer creates a tracer recording into reg with IDs seeded by seed.
func NewTracer(reg *Registry, seed int64) *Tracer {
	return &Tracer{reg: reg, ids: NewIDSource(seed)}
}

// ctxKey types for context propagation.
type spanCtxKey struct{}
type remoteCtxKey struct{}

// ContextWithRemote marks ctx as continuing the trace described by a
// remote parent (typically a parsed incoming traceparent header). The
// next StartSpan under this context becomes a child of that remote span.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteCtxKey{}, sc)
}

// ContextWithSpan installs sp as the current span of ctx.
func ContextWithSpan(ctx context.Context, sp *TraceSpan) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the current span, or nil.
func SpanFromContext(ctx context.Context) *TraceSpan {
	sp, _ := ctx.Value(spanCtxKey{}).(*TraceSpan)
	return sp
}

// StartSpan begins a named span and returns a derived context carrying
// it. Parentage, in priority order: the current span in ctx (in-process
// child), a remote SpanContext installed by ContextWithRemote (incoming
// traceparent), else a fresh root trace. On a nil tracer both returns
// are no-ops (ctx unchanged, nil span).
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *TraceSpan) {
	if t == nil {
		return ctx, nil
	}
	sp := t.reg.newSpan(name)
	switch {
	case SpanFromContext(ctx) != nil:
		parent := SpanFromContext(ctx)
		sp.sc = SpanContext{Trace: parent.sc.Trace, Span: t.ids.SpanID()}
		sp.parent = parent.sc.Span
	default:
		if remote, ok := ctx.Value(remoteCtxKey{}).(SpanContext); ok {
			sp.sc = SpanContext{Trace: remote.Trace, Span: t.ids.SpanID()}
			sp.parent = remote.Span
		} else {
			sp.sc = SpanContext{Trace: t.ids.TraceID(), Span: t.ids.SpanID()}
		}
	}
	return ContextWithSpan(ctx, sp), sp
}

// StartSpan begins a span with no trace identity: the same metric side
// effects as a traced span, and a trace event without trace/span IDs.
// Returns nil (a no-op span) on a nil registry.
func (r *Registry) StartSpan(name string) *TraceSpan {
	if r == nil {
		return nil
	}
	return r.newSpan(name)
}

// newSpan starts the clocks of a span recording into r (which may be
// nil: the span then records nothing).
func (r *Registry) newSpan(name string) *TraceSpan {
	sp := &TraceSpan{r: r, name: name, wallStart: time.Now()}
	if r != nil {
		r.mu.RLock()
		clock := r.simClock
		r.mu.RUnlock()
		if clock != nil {
			sp.hasClock = true
			sp.simStart = clock()
		}
	}
	return sp
}

// TraceSpan is one timed span, traced (a node of a request's span tree)
// or not. All methods are no-ops on a nil receiver; End is idempotent.
type TraceSpan struct {
	r         *Registry
	name      string
	sc        SpanContext
	parent    SpanID
	simStart  uint64
	wallStart time.Time
	hasClock  bool

	mu    sync.Mutex
	attrs map[string]any
	ended bool
}

// Context returns the span's propagated identity (zero for nil).
func (sp *TraceSpan) Context() SpanContext {
	if sp == nil {
		return SpanContext{}
	}
	return sp.sc
}

// TraceIDString returns the span's trace ID in hex ("" for nil) — the
// value used as a histogram exemplar link.
func (sp *TraceSpan) TraceIDString() string {
	if sp == nil {
		return ""
	}
	return sp.sc.Trace.String()
}

// SetAttr attaches one key/value to the span's eventual trace record.
func (sp *TraceSpan) SetAttr(key string, value any) {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.attrs == nil {
		sp.attrs = map[string]any{}
	}
	sp.attrs[key] = value
	sp.mu.Unlock()
}

// End closes the span: it increments "<name>.calls", observes the sim
// duration into the snapshot-visible "<name>.sim" histogram when a sim
// clock is installed, adds wall nanoseconds to the hidden wall table,
// and emits a "span" trace event when a sink is attached — with the
// identity triple only for a traced span. Safe to call more than once;
// only the first End records.
func (sp *TraceSpan) End() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	if sp.ended {
		sp.mu.Unlock()
		return
	}
	sp.ended = true
	attrs := sp.attrs
	sp.mu.Unlock()

	r := sp.r
	wallNS := uint64(time.Since(sp.wallStart).Nanoseconds())
	r.Counter(sp.name + ".calls").Inc()
	r.wallCounter(sp.name).Add(wallNS)
	var simDur uint64
	if sp.hasClock {
		simDur = r.SimNow() - sp.simStart
		r.Histogram(sp.name + ".sim").Observe(int64(simDur))
	}
	if sink := r.traceSink(); sink != nil {
		fields := map[string]any{
			"name":       sp.name,
			"sim_cycles": simDur,
			"wall_ns":    wallNS,
		}
		if sp.sc.Valid() {
			fields["trace"] = sp.sc.Trace.String()
			fields["span"] = sp.sc.Span.String()
			if !sp.parent.IsZero() {
				fields["parent"] = sp.parent.String()
			}
		}
		if len(attrs) > 0 {
			fields["attrs"] = attrs
		}
		sink.Emit("span", r.SimNow(), fields)
	}
}
