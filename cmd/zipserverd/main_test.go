package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/zipchannel/zipchannel/internal/compress/codec"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/server"
)

func TestParsePlant(t *testing.T) {
	id, n, secret, err := parsePlant("victim=64:key=HUNTER2")
	if err != nil {
		t.Fatal(err)
	}
	if id != "victim" || n != 64 || !bytes.Equal(secret, []byte("key=HUNTER2")) {
		t.Fatalf("parsePlant: got (%q, %d, %q)", id, n, secret)
	}
	// The secret keeps every '=' and ':' after the first delimiters.
	_, _, secret, err = parsePlant("p=8:a=b:c")
	if err != nil || string(secret) != "a=b:c" {
		t.Fatalf("parsePlant with delimiters in secret: %q, %v", secret, err)
	}
	for _, bad := range []string{"", "victim", "victim=", "victim=:s", "victim=x:s", "=64:s"} {
		if _, _, _, err := parsePlant(bad); err == nil {
			t.Fatalf("parsePlant(%q) should fail", bad)
		}
	}
}

// TestRunRejectsNegativeQueueLimit: a negative -queue-limit is a usage
// error, not a way to turn shedding off; run fails before it listens.
func TestRunRejectsNegativeQueueLimit(t *testing.T) {
	err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-queue-limit", "-1"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-queue-limit -1") {
		t.Fatalf("run with -queue-limit -1: err = %v, want a -queue-limit usage error", err)
	}
}

// TestRunRejectsPeerFlags: zipserverd owns one cache chain and peers
// with no other instance, so -cache-peer and -cache-peer-timeout are
// unknown flags; run fails before it listens.
func TestRunRejectsPeerFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-cache-peer", "http://127.0.0.1:1"},
		{"-cache-peer-timeout", "1s"},
	} {
		t.Run(args[0], func(t *testing.T) {
			var stderr strings.Builder
			err := run(context.Background(), append([]string{"-addr", "127.0.0.1:0"}, args...), &stderr)
			if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+args[0]) {
				t.Fatalf("run with %s: err = %v, want an undefined-flag error", args[0], err)
			}
		})
	}
}

// chaosFaults arms roughly one injected fault per ten requests across
// the codecs, the cache (response bit-flips, disk tier I/O errors) and
// the worker gate.
const chaosFaults = "server.codec.compress=error:0.04,server.codec.compress=panic:0.02," +
	"server.codec.compress=corrupt:0.02,server.codec.decompress=error:0.05," +
	"server.codec.decompress=panic:0.02,server.cache.get=corrupt:0.03," +
	"server.gate.acquire=latency:0.05:300,server.cache.disk.write=error:0.05," +
	"server.cache.disk.read=error:0.05"

// promRequired are the series the dashboards and alerts read.
var promRequired = []string{"server_requests", "server_request_latency_us_count", "server_breaker_rejected", "server_cache_hits"}

// TestRunServesAndDrains boots zipserverd from its command-line flags
// and drives it over loopback HTTP: verified compress/decompress round
// trips on every codec (twice per body, so the second pass hits the
// cache), a Prometheus scrape, and a shutdown by cancelling the context
// the way SIGTERM does. Shutdown must finish within -drain and leave a
// metrics snapshot, an access log and span records behind. Under the
// chaos flags every round trip must still come back byte-exact, and the
// snapshot must show that faults fired.
func TestRunServesAndDrains(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		bodies     int // distinct bodies per codec
		wantFaults bool
		check      func(t *testing.T, base string)
	}{
		{name: "defaults", bodies: 3},
		{name: "tiered chaos", bodies: 16, wantFaults: true,
			args: []string{"-cache-mb", "8", "-cache-cold-mb", "32", "-faults", chaosFaults, "-fault-seed", "7"}},
		{name: "planted page", bodies: 1, check: checkPlantedPage,
			args: []string{"-pagestore", "-pagestore-plant", "victim=64:key=HUNTER2SECRET000"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			metrics := filepath.Join(dir, "metrics.json")
			access := filepath.Join(dir, "access.ndjson")
			spans := filepath.Join(dir, "spans.ndjson")
			const drain = 5 * time.Second
			args := append([]string{"-addr", "127.0.0.1:0", "-drain", drain.String(), "-metrics", metrics,
				"-access-log", access, "-trace-file", spans, "-cache-dir", filepath.Join(dir, "cold")}, c.args...)
			d, err := start(args, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- d.serve(ctx) }()
			defer func() {
				cancel()
				<-done
			}()
			base := "http://" + d.addr

			for pass := 0; pass < 2; pass++ {
				for _, name := range codec.Names() {
					for i := 0; i < c.bodies; i++ {
						roundTrip(t, base, name, []byte(fmt.Sprintf("%s body %d: %s", name, i, strings.Repeat("abcab", 20+i*7))))
					}
				}
			}
			requireSeries(t, base+"/metrics?format=prom", promRequired)
			if c.check != nil {
				c.check(t, base)
			}

			cancel()
			begin := time.Now()
			select {
			case err := <-done:
				done <- err // for the deferred reap
				if err != nil {
					t.Fatalf("run: %v", err)
				}
			case <-time.After(drain):
				t.Fatalf("run did not return within -drain %s of the cancel", drain)
			}
			t.Logf("shutdown took %s", time.Since(begin))

			raw, err := os.ReadFile(metrics)
			if err != nil {
				t.Fatalf("no final metrics snapshot: %v", err)
			}
			var snap obs.Snapshot
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatal(err)
			}
			var injected uint64
			for name, n := range snap.Counters {
				if strings.HasPrefix(name, "fault.server.") && strings.HasSuffix(name, ".injected") {
					injected += n
				}
			}
			if (injected > 0) != c.wantFaults {
				t.Fatalf("metrics snapshot counts %d injected fault.server.* faults, want faults: %v", injected, c.wantFaults)
			}
			for _, path := range []string{access, spans} {
				if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
					t.Fatalf("%s: empty or missing (%v)", filepath.Base(path), err)
				}
			}
		})
	}
}

// post sends one /v1 request, retrying server-side failures (5xx) the
// way a retrying client does; the retry budget outlasts a tripped
// breaker's cooldown. Any other status fails the test.
func post(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	for attempt := 0; attempt < 40; attempt++ {
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			return out
		case resp.StatusCode < 500:
			t.Fatalf("POST %s: %d %s", url, resp.StatusCode, out)
		}
	}
	t.Fatalf("POST %s: still failing after 40 attempts", url)
	return nil
}

// roundTrip compresses body on the server, decompresses the result on
// the server, and requires the original bytes back.
func roundTrip(t *testing.T, base, name string, body []byte) {
	t.Helper()
	comp := post(t, base+"/v1/"+name+"/compress", body)
	if got := post(t, base+"/v1/"+name+"/decompress", comp); !bytes.Equal(got, body) {
		t.Fatalf("%s round trip changed the bytes: sent %d, got %d back", name, len(body), len(got))
	}
}

// requireSeries scrapes a Prometheus exposition, checks its content
// type, and requires a sample line for every named series.
func requireSeries(t *testing.T, url string, names []string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("exposition content type = %q", ct)
	}
	exposition := "\n" + string(body)
	for _, name := range names {
		if !strings.Contains(exposition, "\n"+name+" ") && !strings.Contains(exposition, "\n"+name+"{") {
			t.Errorf("exposition lacks series %s", name)
		}
	}
}

// checkPlantedPage: -pagestore-plant mounted the co-located page. Its
// GET returns the attacker region only, with the store cost the remote
// oracle (cmd/zippages) reads, and healthz counts the page.
func checkPlantedPage(t *testing.T, base string) {
	resp, err := http.Get(base + "/v1/pages/victim")
	if err != nil {
		t.Fatal(err)
	}
	region, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET planted page: %d %v", resp.StatusCode, err)
	}
	if len(region) != 64 || bytes.Contains(region, []byte("HUNTER2")) {
		t.Fatalf("GET planted page returned %d bytes %q, want the 64-byte attacker region only", len(region), region)
	}
	if resp.Header.Get(server.PageStepsHeader) == "" {
		t.Fatalf("GET planted page: no %s header", server.PageStepsHeader)
	}

	resp, err = http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Pages *struct {
			Pages int `json:"pages"`
		} `json:"pages"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Pages == nil || h.Pages.Pages != 1 {
		t.Fatalf("healthz pages = %+v, want the one planted page", h.Pages)
	}
}
