package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/pagestore"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenStep is one request of the fixed /metrics golden mix.
type goldenStep struct {
	method, path string
	body         []byte
	header       map[string]string
	contentLen   int64 // overrides the declared Content-Length when > 0
	want         int
}

// TestMetricsGolden replays a fixed, sequential request mix that reaches
// every counter site of the /v1 request path — miss, hit, 304, bad
// level, 413, unknown codec and op, corrupt decompress, no-store, an
// injected transient failure that trips the breaker, a breaker
// rejection, page PUT/GET/unknown GET — and compares the /metrics
// snapshot against testdata/metrics.golden.json. So that one injected
// failure trips a breaker, the built server is lowered white box to no
// retries and an lzw decompress breaker one failure short of its
// threshold. The wall-clock latency
// histogram is the only series dropped; SLOLatency -1 keeps wall time
// out of the SLO counters, so the document is a pure function of the
// request sequence.
func TestMetricsGolden(t *testing.T) {
	reg := obs.NewRegistry()
	ps := pagestore.New(pagestore.Config{PageSize: 512, Obs: reg})
	// Every second decompress hit fails transiently: the corrupt stream
	// (hit 1) reaches the codec, the lzw decompress after it (hit 2)
	// fails, trips the primed breaker, and the next one is rejected.
	freg := fault.NewRegistry(1)
	freg.Arm("server.codec.decompress", fault.Spec{Kind: fault.KindError, Every: 2})
	s := New(Config{Registry: reg, PageStore: ps, SLOLatency: -1, MaxBodyBytes: 4096, Workers: 2,
		Faults: freg})
	s.retries = 0
	s.ops[opKey{"lzw", "decompress"}].breaker.consec = breakerThreshold - 1

	payload := []byte(strings.Repeat("metrics golden payload ", 40))
	steps := []goldenStep{
		{method: "POST", path: "/v1/lz77/compress", body: payload, want: 200},
		{method: "POST", path: "/v1/lz77/compress", body: payload, want: 200},
		{method: "POST", path: "/v1/lzw/compress", body: payload, want: 200},
		{method: "POST", path: "/v1/bwt/compress", body: payload, want: 200},
		{method: "POST", path: "/v1/lz77/compress", body: payload, want: 304,
			header: map[string]string{"If-None-Match": "*"}},
		{method: "POST", path: "/v1/lz77/compress", body: payload, want: 400,
			header: map[string]string{LevelHeader: "high"}},
		{method: "POST", path: "/v1/lzw/compress", body: []byte("x"), contentLen: 1 << 20, want: 413},
		{method: "POST", path: "/v1/gzip/compress", body: payload, want: 404},
		{method: "POST", path: "/v1/lz77/transmogrify", body: payload, want: 404},
		{method: "POST", path: "/v1/lz77/decompress", body: []byte("\xff\xfe not a stream"), want: 400},
		{method: "POST", path: "/v1/lzw/compress", body: payload, want: 200,
			header: map[string]string{"Cache-Control": "no-store"}},
		{method: "POST", path: "/v1/lzw/decompress", body: payload, want: 500},
		{method: "POST", path: "/v1/lzw/decompress", body: payload, want: 503},
		{method: "PUT", path: "/v1/pages/p1", body: payload[:300], want: 200},
		{method: "GET", path: "/v1/pages/p1", want: 200},
		{method: "GET", path: "/v1/pages/missing", want: 404},
	}
	for i, st := range steps {
		req := httptest.NewRequest(st.method, st.path, bytes.NewReader(st.body))
		if st.contentLen > 0 {
			req.ContentLength = st.contentLen
		}
		for k, v := range st.header {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != st.want {
			t.Fatalf("step %d %s %s: status %d, want %d: %s", i, st.method, st.path, rec.Code, st.want, rec.Body)
		}
	}

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/metrics is not a snapshot: %v", err)
	}
	if _, ok := snap.Histograms["server.request_latency_us"]; !ok {
		t.Fatal("/metrics lacks server.request_latency_us")
	}
	delete(snap.Histograms, "server.request_latency_us")
	got, err := snap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "metrics.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/metrics diverges from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
