package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/server"
)

// TestCollectMatchesServerMetrics is the scripting-mode contract: the
// values zipstat reports for a target must equal what the server's own
// /metrics and /healthz endpoints say.
func TestCollectMatchesServerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	srv := server.New(server.Config{Registry: reg, Tracer: obs.NewTracer(reg, 3)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	payload := []byte(strings.Repeat("zipstat collect payload ", 20))
	for i := 0; i < 3; i++ { // 1 miss + 2 hits
		resp, err := http.Post(ts.URL+"/v1/lzw/compress", "application/octet-stream",
			bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	httpc := &http.Client{Timeout: 5 * time.Second}
	st := collect(httpc, ts.URL)
	if !st.Healthy {
		t.Fatalf("collect: unhealthy: %s", st.Error)
	}

	snap := reg.Snapshot()
	if st.Requests != snap.Counters["server.requests"] {
		t.Errorf("Requests = %d, server says %d", st.Requests, snap.Counters["server.requests"])
	}
	if st.CacheHits != snap.Counters["server.cache.hits"] || st.CacheMisses != snap.Counters["server.cache.misses"] {
		t.Errorf("cache %d/%d, server says %d/%d", st.CacheHits, st.CacheMisses,
			snap.Counters["server.cache.hits"], snap.Counters["server.cache.misses"])
	}
	if want := 2.0 / 3.0; st.HitRate < want-1e-9 || st.HitRate > want+1e-9 {
		t.Errorf("HitRate = %v, want %v", st.HitRate, want)
	}
	h := snap.Histograms["server.request_latency_us"]
	if q := h.Quantiles(0.5, 0.95, 0.99); st.LatencyP50US != q[0] || st.LatencyP95US != q[1] || st.LatencyP99US != q[2] {
		t.Errorf("quantiles (%v %v %v), server histogram says %v",
			st.LatencyP50US, st.LatencyP95US, st.LatencyP99US, q)
	}
	if st.UptimeSimSteps != 3 {
		t.Errorf("UptimeSimSteps = %d, want 3 (one per /v1 request)", st.UptimeSimSteps)
	}
	if st.Breakers["lzw/compress"] != "closed" {
		t.Errorf("Breakers = %v, want lzw/compress closed", st.Breakers)
	}

	// The -json schema: stable keys a script can depend on.
	b, err := json.Marshal([]instanceStats{st})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"target"`, `"healthy"`, `"requests"`, `"rps"`,
		`"hit_rate"`, `"latency_p50_us"`, `"latency_p95_us"`, `"latency_p99_us"`,
		`"breakers"`, `"uptime_sim_steps"`} {
		if !bytes.Contains(b, []byte(key)) {
			t.Errorf("-once -json output missing %s:\n%s", key, b)
		}
	}
}

// TestCollectDownTarget: an unreachable target is an unhealthy row, not an
// error that kills the dashboard.
func TestCollectDownTarget(t *testing.T) {
	httpc := &http.Client{Timeout: 200 * time.Millisecond}
	st := collect(httpc, "http://127.0.0.1:1")
	if st.Healthy || st.Error == "" {
		t.Fatalf("down target: healthy=%v error=%q", st.Healthy, st.Error)
	}
	var buf bytes.Buffer
	renderTable(&buf, []instanceStats{st})
	if !strings.Contains(buf.String(), "DOWN") {
		t.Fatalf("table for down target:\n%s", buf.String())
	}
}

// TestCollectAllRPSDelta: watch mode computes RPS from the request delta
// between consecutive polls.
func TestCollectAllRPSDelta(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	httpc := &http.Client{Timeout: 5 * time.Second}

	first := collectAll(httpc, []string{ts.URL}, nil)
	for i := 0; i < 5; i++ {
		resp, err := http.Post(ts.URL+"/v1/lz77/compress", "application/octet-stream",
			bytes.NewReader([]byte("rps delta payload")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	time.Sleep(20 * time.Millisecond) // a nonzero poll gap for the delta
	second := collectAll(httpc, []string{ts.URL}, first)
	if got := second[0].Requests - first[0].Requests; got != 5 {
		t.Fatalf("request delta = %d, want 5", got)
	}
	if second[0].RPS <= 0 {
		t.Fatalf("watch-mode RPS = %v, want > 0", second[0].RPS)
	}
}

func TestBreakerSummary(t *testing.T) {
	cases := []struct {
		in   map[string]string
		want string
	}{
		{nil, "-"},
		{map[string]string{"a/x": "closed", "b/y": "closed"}, "all closed (2)"},
		{map[string]string{"a/x": "open", "b/y": "closed", "c/z": "trial"}, "a/x=open c/z=trial"},
	}
	for _, c := range cases {
		if got := breakerSummary(c.in); got != c.want {
			t.Errorf("breakerSummary(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestUnreachableTargets: -once -require names every down target, not
// just the first one.
func TestUnreachableTargets(t *testing.T) {
	stats := []instanceStats{
		{Target: "http://a:1", Healthy: false, Error: "refused"},
		{Target: "http://b:2", Healthy: true},
		{Target: "http://c:3", Healthy: false, Error: "timeout"},
	}
	down := unreachableTargets(stats)
	if len(down) != 2 || down[0] != "http://a:1" || down[1] != "http://c:3" {
		t.Fatalf("unreachableTargets = %v, want both down addresses in order", down)
	}
	if got := unreachableTargets(stats[1:2]); len(got) != 0 {
		t.Fatalf("healthy fleet reported unreachable: %v", got)
	}
}

// TestCollectOverload: the healthz overload section surfaces in the row
// (and its degraded detail line) so dashboards see shedding without
// scraping raw metrics. An idle server already lists all six codec/op
// breakers, closed.
func TestCollectOverload(t *testing.T) {
	srv := server.New(server.Config{Workers: 1, QueueLimit: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	httpc := &http.Client{Timeout: 5 * time.Second}

	st := collect(httpc, ts.URL)
	if !st.Healthy {
		t.Fatalf("collect: unhealthy: %s", st.Error)
	}
	if st.OverloadState != "ok" {
		t.Fatalf("OverloadState = %q, want ok on an idle server", st.OverloadState)
	}

	// A synthetic degraded row renders its detail line; the healthy row
	// from the live server does not.
	var buf bytes.Buffer
	degraded := instanceStats{Target: "http://x:1", Healthy: true,
		OverloadState: "saturated", ShedTotal: 7, QueueDepth: 3}
	renderTable(&buf, []instanceStats{st, degraded})
	out := buf.String()
	if !strings.Contains(out, "http://x:1 degraded: overload=saturated shed=7 queue=3\n") {
		t.Fatalf("degraded detail line missing:\n%s", out)
	}
	if strings.Contains(out, ts.URL+" degraded:") {
		t.Fatalf("healthy instance got a degraded line:\n%s", out)
	}
	if !strings.Contains(out, "all closed (6)") {
		t.Fatalf("idle server row does not print all closed (6):\n%s", out)
	}

	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"overload_state"`, `"shed_total"`, `"queue_depth"`} {
		if !bytes.Contains(b, []byte(key)) {
			t.Errorf("-once -json output missing %s:\n%s", key, b)
		}
	}
}
