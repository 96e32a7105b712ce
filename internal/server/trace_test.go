package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/zipchannel/zipchannel/internal/compress/codec"
	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
)

// spanRecord mirrors the NDJSON "span" event shape the trace sink emits.
type spanRecord struct {
	Ev     string         `json:"ev"`
	Name   string         `json:"name"`
	Trace  string         `json:"trace"`
	Span   string         `json:"span"`
	Parent string         `json:"parent"`
	Attrs  map[string]any `json:"attrs"`
}

// decodeSpans parses every span event out of an NDJSON buffer.
func decodeSpans(t *testing.T, raw []byte) []spanRecord {
	t.Helper()
	var spans []spanRecord
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec spanRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if rec.Ev == "span" {
			spans = append(spans, rec)
		}
	}
	return spans
}

// lockedBuffer lets the HTTP client goroutines and the test read the
// sink's output without racing the sink's own writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestTracePropagation drives concurrent requests — half carrying an
// incoming traceparent, half without — and checks the resulting NDJSON
// span forest: every request yields a complete tree sharing one trace ID,
// child spans link to the server.request root, the root continues the
// remote parent when one was supplied, and the response echoes a
// traceparent in the request's trace. Run under -race this doubles as the
// tracer's concurrency test.
func TestTracePropagation(t *testing.T) {
	reg := obs.NewRegistry()
	var sinkBuf lockedBuffer
	reg.SetTraceSink(obs.NewTraceSink(&sinkBuf))
	_, ts := newTestServer(t, Config{
		Registry: reg,
		Tracer:   obs.NewTracer(reg, 42),
		Workers:  4,
	})

	const half = 8
	remoteTrace := func(i int) string { return fmt.Sprintf("%032x", 0xabc00+i) }
	remoteSpan := "00f067aa0ba902b7"

	respTraces := make([]string, 2*half)
	var wg sync.WaitGroup
	for i := 0; i < 2*half; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest("POST", ts.URL+"/v1/lzw/compress",
				strings.NewReader(fmt.Sprintf("trace propagation payload %d", i)))
			if err != nil {
				t.Error(err)
				return
			}
			if i < half {
				req.Header.Set("traceparent", "00-"+remoteTrace(i)+"-"+remoteSpan+"-01")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			respTraces[i] = resp.Header.Get("Traceparent")
		}(i)
	}
	wg.Wait()

	spans := decodeSpans(t, sinkBuf.Bytes())
	byTrace := map[string][]spanRecord{}
	for _, sp := range spans {
		byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
	}
	if len(byTrace) != 2*half {
		t.Fatalf("got %d distinct traces, want %d", len(byTrace), 2*half)
	}

	checkTree := func(trace string, wantRootParent string) {
		t.Helper()
		tree := byTrace[trace]
		var root *spanRecord
		names := map[string]int{}
		for i := range tree {
			names[tree[i].Name]++
			if tree[i].Name == "server.request" {
				root = &tree[i]
			}
		}
		if root == nil {
			t.Fatalf("trace %s: no server.request root (have %v)", trace, names)
		}
		if root.Parent != wantRootParent {
			t.Fatalf("trace %s: root parent = %q, want %q", trace, root.Parent, wantRootParent)
		}
		// A compress miss visits the cache, breaker, gate, and codec: the
		// complete span taxonomy for an uncached request.
		for _, want := range []string{"server.cache.lookup", "server.breaker.check",
			"server.gate.wait", "server.codec.run", "server.cache.store"} {
			if names[want] == 0 {
				t.Errorf("trace %s: missing %s span (have %v)", trace, want, names)
			}
		}
		for _, sp := range tree {
			if sp.Name == "server.request" {
				continue
			}
			if sp.Parent != root.Span {
				t.Errorf("trace %s: span %s parent = %q, want root %q", trace, sp.Name, sp.Parent, root.Span)
			}
		}
	}

	for i := 0; i < half; i++ {
		// Incoming traceparent: the server continues our trace and links
		// its root to our span.
		checkTree(remoteTrace(i), remoteSpan)
		if want := remoteTrace(i); !strings.Contains(respTraces[i], want) {
			t.Errorf("request %d: response traceparent %q not in trace %s", i, respTraces[i], want)
		}
	}
	for i := half; i < 2*half; i++ {
		// No incoming header: the response named a fresh root trace.
		sc, ok := obs.ParseTraceparent(respTraces[i])
		if !ok {
			t.Fatalf("request %d: bad response traceparent %q", i, respTraces[i])
		}
		if _, exists := byTrace[sc.Trace.String()]; !exists {
			t.Errorf("request %d: response trace %s has no recorded spans", i, sc.Trace)
		}
		checkTree(sc.Trace.String(), "")
	}
}

// TestUntracedRunsAreByteIdentical is the tracing half of the determinism
// contract: with no tracer configured, identical request sequences produce
// byte-identical snapshots, the snapshot contains no span-derived series,
// and responses carry no traceparent.
func TestUntracedRunsAreByteIdentical(t *testing.T) {
	run := func() ([]byte, http.Header) {
		reg := obs.NewRegistry()
		_, ts := newTestServer(t, Config{Registry: reg, Workers: 2})
		var hdr http.Header
		for i := 0; i < 4; i++ {
			resp, _ := post(t, ts.URL+"/v1/lz77/compress", []byte(strings.Repeat("payload", 50)))
			hdr = resp.Header
		}
		snap := reg.Snapshot()
		delete(snap.Histograms, "server.request_latency_us") // wall clock
		for name := range snap.Counters {
			if strings.HasSuffix(name, ".calls") {
				t.Errorf("untraced run grew span counter %s", name)
			}
		}
		b, err := snap.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return b, hdr
	}
	a, hdr := run()
	b, _ := run()
	if !bytes.Equal(a, b) {
		t.Fatalf("untraced snapshots diverge:\n--- first\n%s\n--- second\n%s", a, b)
	}
	if tp := hdr.Get("Traceparent"); tp != "" {
		t.Fatalf("untraced response carries traceparent %q", tp)
	}
}

// TestMetricsPromFormat checks GET /metrics?format=prom serves the
// Prometheus exposition (internal/obs pins its bytes) with the needed
// series, the canonical JSON snapshot untouched at the default, and
// unknown formats rejected.
func TestMetricsPromFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/bwt/compress", []byte("prom exposition payload"))

	resp, body := get(t, ts.URL+"/metrics?format=prom")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?format=prom: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("?format=prom content type = %q", ct)
	}
	exposition := "\n" + string(body)
	for _, want := range []string{"server_requests", "server_request_latency_us_bucket",
		"server_breaker_rejected", "server_slo_bwt_compress_good"} {
		if !strings.Contains(exposition, "\n"+want+" ") && !strings.Contains(exposition, "\n"+want+"{") {
			t.Errorf("exposition missing %s", want)
		}
	}

	resp, body = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("default /metrics: status %d type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("default /metrics is not a JSON snapshot: %v", err)
	}

	if resp, _ := get(t, ts.URL+"/metrics?format=xml"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?format=xml: status %d, want 400", resp.StatusCode)
	}
}

// TestPromExemplarLinksTrace: a traced request's latency bucket carries
// its trace ID as an exemplar in the Prometheus exposition.
func TestPromExemplarLinksTrace(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Registry: reg, Tracer: obs.NewTracer(reg, 3)})
	const trace = "4bf92f3577b34da6a3ce929d0e0e4736"
	resp, _ := postV1(t, ts, "/v1/lz77/compress", []byte("exemplar payload"),
		map[string]string{"traceparent": "00-" + trace + "-00f067aa0ba902b7-01"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced request: status %d", resp.StatusCode)
	}
	_, body := get(t, ts.URL+"/metrics?format=prom")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "server_request_latency_us_bucket{") &&
			strings.HasSuffix(line[:strings.LastIndexByte(line, ' ')], `# {trace_id="`+trace+`"}`) {
			return
		}
	}
	t.Fatalf("no latency bucket carries trace %s:\n%s", trace, body)
}

// TestPprofOptIn: the profiling surface exists only when asked for.
func TestPprofOptIn(t *testing.T) {
	_, off := newTestServer(t, Config{})
	if resp, _ := get(t, off.URL+"/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof off: /debug/pprof/ status %d, want 404", resp.StatusCode)
	}
	_, on := newTestServer(t, Config{EnablePprof: true})
	if resp, _ := get(t, on.URL+"/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof on: /debug/pprof/ status %d, want 200", resp.StatusCode)
	}
}

// TestHealthzBreakerTransitions arms an always-failing codec fault and
// watches the shipped breaker's state transitions appear in /healthz:
// closed while failed requests accumulate, open once tripped, trial after
// the cooldown.
func TestHealthzBreakerTransitions(t *testing.T) {
	freg := fault.NewRegistry(1)
	if err := freg.ArmAll("server.codec.compress=error:1"); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Faults: freg})

	breakerState := func() string {
		t.Helper()
		_, body := get(t, ts.URL+"/healthz")
		var h struct {
			Breakers map[string]string `json:"breakers"`
		}
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("healthz: %v\n%s", err, body)
		}
		return h.Breakers["lz77/compress"]
	}

	payload := []byte("breaker transition payload")
	for i := 1; i <= breakerThreshold; i++ {
		if st := breakerState(); st != "closed" {
			t.Fatalf("after %d failures: breaker %q, want closed", i-1, st)
		}
		if resp, _ := post(t, ts.URL+"/v1/lz77/compress", payload); resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("injected failure %d: status %d, want 500", i, resp.StatusCode)
		}
	}
	if st := breakerState(); st != "open" {
		t.Fatalf("after %d failures: breaker %q, want open", breakerThreshold, st)
	}
	// The open breaker rejects breakerCooldown requests, then trials.
	for i := 0; i < breakerCooldown; i++ {
		if resp, _ := post(t, ts.URL+"/v1/lz77/compress", payload); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("open breaker, rejection %d: status %d, want 503", i+1, resp.StatusCode)
		}
	}
	if st := breakerState(); st != "trial" {
		t.Fatalf("after cooldown: breaker %q, want trial", st)
	}
}

// TestHealthzBreakersPerCodecOp: each codec/op pair owns its breaker.
// Tripping lz77/compress leaves the other five listed closed, and another
// codec's compress still reaches its (equally faulted) worker: a 500 from
// the codec, not a 503 from lz77's open breaker.
func TestHealthzBreakersPerCodecOp(t *testing.T) {
	freg := fault.NewRegistry(1)
	if err := freg.ArmAll("server.codec.compress=error:1"); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Faults: freg})

	breakers := func() map[string]string {
		t.Helper()
		_, body := get(t, ts.URL+"/healthz")
		var h struct {
			Breakers map[string]string `json:"breakers"`
		}
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("healthz: %v\n%s", err, body)
		}
		return h.Breakers
	}

	payload := []byte("per-pair breaker payload")
	for i := 0; i < breakerThreshold; i++ {
		post(t, ts.URL+"/v1/lz77/compress", payload)
	}
	var other string
	for _, name := range codec.Names() {
		if name != "lz77" {
			other = name
			break
		}
	}
	if resp, _ := post(t, ts.URL+"/v1/"+other+"/compress", payload); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("%s/compress with lz77/compress open: status %d, want 500", other, resp.StatusCode)
	}
	got := breakers()
	if len(got) != 2*len(codec.Names()) {
		t.Fatalf("healthz lists %d breakers, want %d: %v", len(got), 2*len(codec.Names()), got)
	}
	for pair, st := range got {
		want := "closed"
		if pair == "lz77/compress" {
			want = "open"
		}
		if st != want {
			t.Errorf("breaker %s = %q, want %q (all: %v)", pair, st, want, got)
		}
	}
}

// TestAccessLog checks every /v1 request writes one structured NDJSON
// record carrying the fields a log pipeline joins on.
func TestAccessLog(t *testing.T) {
	var buf lockedBuffer
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{
		Registry:  reg,
		Tracer:    obs.NewTracer(reg, 7),
		AccessLog: &buf,
	})
	post(t, ts.URL+"/v1/lzw/compress", []byte("access log payload"))
	get(t, ts.URL+"/metrics") // scrapes must NOT be access-logged

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 1 {
		t.Fatalf("access log has %d lines, want 1:\n%s", len(lines), buf.Bytes())
	}
	var rec struct {
		Ev       string `json:"ev"`
		Trace    string `json:"trace"`
		Codec    string `json:"codec"`
		Op       string `json:"op"`
		Status   int    `json:"status"`
		BytesIn  int    `json:"bytes_in"`
		BytesOut int    `json:"bytes_out"`
		SimSteps uint64 `json:"sim_steps"`
		WallUS   *int64 `json:"wall_us"`
		Cache    string `json:"cache"`
		Breaker  string `json:"breaker"`
	}
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatalf("access record: %v\n%s", err, lines[0])
	}
	if rec.Ev != "access" || rec.Codec != "lzw" || rec.Op != "compress" || rec.Status != 200 {
		t.Fatalf("access record fields: %+v", rec)
	}
	if rec.Trace == "" || len(rec.Trace) != 32 {
		t.Fatalf("access record trace = %q, want 32-hex trace ID", rec.Trace)
	}
	if rec.BytesIn != len("access log payload") || rec.BytesOut == 0 {
		t.Fatalf("access record byte counts: %+v", rec)
	}
	if rec.SimSteps != 1 || rec.WallUS == nil || rec.Cache != "miss" || rec.Breaker != "closed" {
		t.Fatalf("access record envelope: %+v", rec)
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body := readAll(t, resp)
	return resp, body
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
