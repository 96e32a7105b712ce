package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	ids := NewIDSource(7)
	sc := SpanContext{Trace: ids.TraceID(), Span: ids.SpanID()}
	h := sc.Traceparent()
	if len(h) != 55 || !strings.HasPrefix(h, "00-") || !strings.HasSuffix(h, "-01") {
		t.Fatalf("traceparent form: %q", h)
	}
	got, ok := ParseTraceparent(h)
	if !ok || got != sc {
		t.Fatalf("round trip: %q -> %+v ok=%v, want %+v", h, got, ok, sc)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-abc-def-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", // bad flags
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x",
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	}
	for _, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", h)
		}
	}
}

// TestParseTraceparentVersions pins the version rules: a version-00
// header is exactly 55 bytes, while a later version may carry extra
// '-'-separated fields after the flags.
func TestParseTraceparentVersions(t *testing.T) {
	const id = "4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7"
	cases := []struct {
		h    string
		want bool
	}{
		{"00-" + id + "-01", true},
		{"00-" + id + "-00", true},
		{"00-" + strings.ToUpper(id) + "-01", true},
		{"00-" + id + "-01-extra", false},
		{"00-" + id + "-01-", false},
		{"00-" + id + "-01x", false},
		{"01-" + id + "-01", true},
		{"01-" + id + "-01-extra", true},
		{"01-" + id + "-01-", true},
		{"01-" + id + "-01x", false},
		{"ff-" + id + "-01", false},
	}
	for _, c := range cases {
		if _, ok := ParseTraceparent(c.h); ok != c.want {
			t.Errorf("ParseTraceparent(%q) ok = %v, want %v", c.h, ok, c.want)
		}
	}
}

// FuzzParseTraceparent checks that an accepted version-00 header is
// exactly 55 bytes and that its identity round-trips through
// SpanContext.Traceparent up to hex case. (The flags byte is not carried:
// Traceparent always renders the sampled flag.)
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra")
	f.Add("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x")
	f.Add("ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Fuzz(func(t *testing.T, h string) {
		sc, ok := ParseTraceparent(h)
		if !ok {
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q with an invalid identity", h)
		}
		out := sc.Traceparent()
		if back, ok := ParseTraceparent(out); !ok || back != sc {
			t.Fatalf("%q re-parses to %+v ok=%v, want %+v", out, back, ok, sc)
		}
		if !strings.HasPrefix(h, "00-") {
			return
		}
		if len(h) != 55 {
			t.Fatalf("accepted version-00 header of %d bytes: %q", len(h), h)
		}
		if !strings.EqualFold(out[:52], h[:52]) {
			t.Fatalf("%q renders as %q", h, out)
		}
	})
}

func TestIDSourceDeterministicAndUnique(t *testing.T) {
	a, b := NewIDSource(42), NewIDSource(42)
	for i := 0; i < 10; i++ {
		if a.TraceID() != b.TraceID() || a.SpanID() != b.SpanID() {
			t.Fatal("same seed must yield the same ID sequence")
		}
	}
	seen := map[SpanID]bool{}
	for i := 0; i < 1000; i++ {
		id := a.SpanID()
		if id.IsZero() || seen[id] {
			t.Fatalf("duplicate or zero span ID at %d", i)
		}
		seen[id] = true
	}
}

// TestTracerSpanTree checks the identity linkage written to the sink:
// root, child, and grandchild share a trace ID and chain their parents.
func TestTracerSpanTree(t *testing.T) {
	reg := NewRegistry()
	var buf bytes.Buffer
	reg.SetTraceSink(NewTraceSink(&buf))
	tr := NewTracer(reg, 1)

	ctx, root := tr.StartSpan(context.Background(), "root")
	cctx, child := tr.StartSpan(ctx, "child")
	_, grand := tr.StartSpan(cctx, "grand")
	grand.End()
	child.End()
	root.SetAttr("codec", "lz77")
	root.End()
	root.End() // idempotent

	type rec struct {
		Name   string         `json:"name"`
		Trace  string         `json:"trace"`
		Span   string         `json:"span"`
		Parent string         `json:"parent"`
		Attrs  map[string]any `json:"attrs"`
	}
	byName := map[string]rec{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		byName[r.Name] = r
	}
	if len(byName) != 3 {
		t.Fatalf("want 3 span records, got %d (%q)", len(byName), buf.String())
	}
	rr, cc, gg := byName["root"], byName["child"], byName["grand"]
	if rr.Trace == "" || cc.Trace != rr.Trace || gg.Trace != rr.Trace {
		t.Fatalf("trace IDs diverge: root=%s child=%s grand=%s", rr.Trace, cc.Trace, gg.Trace)
	}
	if rr.Parent != "" {
		t.Fatalf("root has parent %s", rr.Parent)
	}
	if cc.Parent != rr.Span || gg.Parent != cc.Span {
		t.Fatalf("parent chain broken: child.parent=%s (want %s), grand.parent=%s (want %s)",
			cc.Parent, rr.Span, gg.Parent, cc.Span)
	}
	if rr.Attrs["codec"] != "lz77" {
		t.Fatalf("root attrs = %v", rr.Attrs)
	}
	if got := reg.Snapshot().Counters["root.calls"]; got != 1 {
		t.Fatalf("root.calls = %d, want 1 (End must be idempotent)", got)
	}
}

// TestTracerRemoteParent: an incoming traceparent continues the caller's
// trace instead of starting a new one.
func TestTracerRemoteParent(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 3)
	remote, ok := ParseTraceparent("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if !ok {
		t.Fatal("fixture traceparent rejected")
	}
	ctx := ContextWithRemote(context.Background(), remote)
	_, sp := tr.StartSpan(ctx, "server.request")
	if sp.Context().Trace != remote.Trace {
		t.Fatalf("trace = %s, want caller's %s", sp.Context().Trace, remote.Trace)
	}
	if sp.parent != remote.Span {
		t.Fatalf("parent = %s, want caller's span %s", sp.parent, remote.Span)
	}
	if sp.Context().Span == remote.Span {
		t.Fatal("span must mint its own ID, not reuse the caller's")
	}
}

// TestNilTracerIsInvisible: the disarmed contract. A workload run with a
// nil tracer must leave the registry byte-identical to one that never
// called the tracing API at all.
func TestNilTracerIsInvisible(t *testing.T) {
	workload := func(tr *Tracer) *Registry {
		reg := NewRegistry()
		if tr != nil {
			t.Fatal("test wiring: workload expects the nil tracer")
		}
		for i := 0; i < 50; i++ {
			ctx, sp := tr.StartSpan(context.Background(), "op")
			_, child := tr.StartSpan(ctx, "op.inner")
			sp.SetAttr("i", i)
			reg.Counter("work.items").Inc()
			reg.Histogram("work.size").Observe(int64(i))
			child.End()
			sp.End()
		}
		return reg
	}
	plain := NewRegistry()
	for i := 0; i < 50; i++ {
		plain.Counter("work.items").Inc()
		plain.Histogram("work.size").Observe(int64(i))
	}
	traced := workload(nil)

	a, err := plain.Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	b, err := traced.Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("nil tracer left traces in the registry:\n--- without tracer calls\n%s\n--- with nil tracer\n%s", a, b)
	}
}

// TestTracerConcurrent hammers one tracer from many goroutines (run
// under -race by `make race`): every span must land with a consistent
// parent and no two spans may share an ID.
func TestTracerConcurrent(t *testing.T) {
	reg := NewRegistry()
	var buf bytes.Buffer
	reg.SetTraceSink(NewTraceSink(&buf))
	tr := NewTracer(reg, 9)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ctx, sp := tr.StartSpan(context.Background(), "conc")
				_, child := tr.StartSpan(ctx, "conc.child")
				child.End()
				sp.End()
			}
		}()
	}
	wg.Wait()

	spans := map[string]string{} // span ID -> trace ID
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var r struct{ Trace, Span, Parent string }
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad line %q: %v", line, err)
		}
		if _, dup := spans[r.Span]; dup {
			t.Fatalf("duplicate span ID %s", r.Span)
		}
		spans[r.Span] = r.Trace
	}
	if len(spans) != 8*50*2 {
		t.Fatalf("got %d span records, want %d", len(spans), 8*50*2)
	}
}

func TestDeclare(t *testing.T) {
	reg := NewRegistry()
	reg.DeclareCounters("a.b", "c.d")
	reg.DeclareGauges("g.one")
	reg.DeclareHistograms("h.one")
	snap := reg.Snapshot()
	if v, ok := snap.Counters["a.b"]; !ok || v != 0 {
		t.Fatalf("declared counter a.b: %v %v", v, ok)
	}
	if _, ok := snap.Gauges["g.one"]; !ok {
		t.Fatal("declared gauge missing")
	}
	if h, ok := snap.Histograms["h.one"]; !ok || h.Count != 0 {
		t.Fatalf("declared histogram: %+v %v", h, ok)
	}
	var nilReg *Registry
	nilReg.DeclareCounters("x") // must not panic
}
