package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/server"
)

// TestRunLoadAgainstLiveServer boots internal/server, drives it with
// several verifying clients across all codecs, and requires zero errors
// plus sane metrics.
func TestRunLoadAgainstLiveServer(t *testing.T) {
	s := server.New(server.Config{Workers: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	cfg := loadConfig{
		BaseURL:  ts.URL,
		Clients:  4,
		Requests: 6,
		Codecs:   []string{"lz77", "lzw", "bwt"},
		Seed:     1,
		Verify:   true,
		BodyCap:  2048,
	}
	res, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors (first: %s)", res.Errors, res.FirstError)
	}
	// 4 clients x 6 compress requests, each verified with a decompress.
	if want := uint64(4 * 6 * 2); res.Requests != want {
		t.Fatalf("requests = %d, want %d", res.Requests, want)
	}
	snap := res.Registry.Snapshot()
	if h := snap.Histograms["zipload.latency_us"]; h.Count != res.Requests {
		t.Fatalf("latency histogram count = %d, want %d", h.Count, res.Requests)
	}
	if res.ServerSnap == nil {
		t.Fatal("server /metrics snapshot not fetched")
	}
	if res.ServerSnap.Counters["server.requests"] != res.Requests {
		t.Fatalf("server saw %d requests, client sent %d",
			res.ServerSnap.Counters["server.requests"], res.Requests)
	}

	var sb strings.Builder
	res.report(&sb, cfg)
	out := sb.String()
	for _, want := range []string{"0 errors", "server cache:", "latency:", "hit rate"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestRunLoadCountsServerErrors points the generator at a corrupting codec
// path by shrinking the server's body cap below the pool's body size: every
// compress should fail with 413 and be counted, not crash.
func TestRunLoadCountsServerErrors(t *testing.T) {
	s := server.New(server.Config{MaxBodyBytes: 16})
	ts := httptest.NewServer(s)
	defer ts.Close()

	res, err := runLoad(loadConfig{
		BaseURL:  ts.URL,
		Clients:  2,
		Requests: 3,
		Codecs:   []string{"lzw"},
		Seed:     2,
		Verify:   true,
		BodyCap:  1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Fatal("expected 413 failures to be counted as errors")
	}
	if !strings.Contains(res.FirstError, "status 413") {
		t.Fatalf("first error should carry the status, got %q", res.FirstError)
	}
}

// TestRunLoadRetriesRecoverInjectedFaults is the in-process core of
// make test-chaos: a fault-armed server (injected codec errors and
// panics) driven by verifying clients with backoff retries. Every
// round trip must still come back byte-correct with zero unrecovered
// errors, and the retry path must actually have fired. The server runs
// its shipped policy, retrying each transient failure twice, so the
// fault rates are high enough (about 0.4 per attempt, ~6% of requests
// failing all three attempts) that some failures reach the client.
func TestRunLoadRetriesRecoverInjectedFaults(t *testing.T) {
	faults := fault.NewRegistry(7)
	if err := faults.ArmAll("server.codec.compress=error:0.35,server.codec.compress=panic:0.05,server.codec.decompress=error:0.4"); err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{Workers: 4, Faults: faults})
	ts := httptest.NewServer(s)
	defer ts.Close()

	res, err := runLoad(loadConfig{
		BaseURL:   ts.URL,
		Clients:   4,
		Requests:  12,
		Codecs:    []string{"lz77", "lzw", "bwt"},
		Seed:      4,
		Verify:    true,
		BodyCap:   1024,
		Retries:   5,
		RetryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d unrecovered errors under injected faults (first: %s)", res.Errors, res.FirstError)
	}
	retries := res.Registry.Snapshot().Counters["zipload.retries"]
	srv := s.Registry()
	serverRetries := srv.Counter("server.codec.retries").Value()
	t.Logf("zipload.retries = %d, server.codec.retries = %d, server.breaker.trips = %d",
		retries, serverRetries, srv.Counter("server.breaker.trips").Value())
	if retries == 0 {
		t.Fatal("no retries recorded — the fault profile never fired")
	}
	if serverRetries == 0 {
		t.Fatal("no server-side retries recorded — the shipped retry policy never ran")
	}
	var sb strings.Builder
	res.report(&sb, loadConfig{Codecs: []string{"lz77"}})
	if !strings.Contains(sb.String(), "retries:") {
		t.Fatalf("report should surface the retry count:\n%s", sb.String())
	}
}

// TestRunLoadDeadServer checks the upfront health probe turns a dead
// server into one clear error.
func TestRunLoadDeadServer(t *testing.T) {
	_, err := runLoad(loadConfig{
		BaseURL:  "http://127.0.0.1:1", // nothing listens here
		Clients:  2,
		Requests: 1,
		Codecs:   []string{"lz77"},
		BodyCap:  64,
	})
	if err == nil || !strings.Contains(err.Error(), "not reachable") {
		t.Fatalf("want reachability error, got %v", err)
	}
}

// TestBodyPoolDeterministic: same seed, same pool; bodies respect the cap.
func TestBodyPoolDeterministic(t *testing.T) {
	a := bodyPool(7, 512)
	b := bodyPool(7, 512)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("pool sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) > 512 {
			t.Fatalf("body %d exceeds cap: %d bytes", i, len(a[i]))
		}
		if string(a[i]) != string(b[i]) {
			t.Fatalf("body %d differs across identical seeds", i)
		}
	}
}

// TestParseCodecs covers subsets, whitespace, and rejects.
func TestParseCodecs(t *testing.T) {
	got, err := parseCodecs(" bwt , lz77 ")
	if err != nil || len(got) != 2 || got[0] != "bwt" || got[1] != "lz77" {
		t.Fatalf("parseCodecs = %v, %v", got, err)
	}
	if _, err := parseCodecs("zstd"); err == nil {
		t.Fatal("parseCodecs should reject unknown names")
	}
	if _, err := parseCodecs(""); err == nil {
		t.Fatal("parseCodecs should reject an empty set")
	}
}

// TestDurationMode sanity-checks the deadline loop terminates promptly.
func TestDurationMode(t *testing.T) {
	s := server.New(server.Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	start := time.Now()
	res, err := runLoad(loadConfig{
		BaseURL:  ts.URL,
		Clients:  2,
		Duration: 200 * time.Millisecond,
		Codecs:   []string{"lzw"},
		Seed:     3,
		Verify:   false,
		BodyCap:  256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors (first: %s)", res.Errors, res.FirstError)
	}
	if res.Requests == 0 {
		t.Fatal("duration mode sent no requests")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("duration mode ran way past its deadline: %v", elapsed)
	}
}
