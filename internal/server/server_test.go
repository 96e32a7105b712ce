package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/zipchannel/zipchannel/internal/compress/codec"
	"github.com/zipchannel/zipchannel/internal/compress/huffcoding"
	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("POST %s: read body: %v", url, err)
	}
	return resp, out
}

// TestRoundTripAllCodecs pushes a mixed payload through compress then
// decompress over HTTP for every registered codec.
func TestRoundTripAllCodecs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := []byte(strings.Repeat("zipserverd round trip payload. ", 100) + "\x00\x01\xfe\xff")
	for _, name := range codec.Names() {
		resp, comp := post(t, ts.URL+"/v1/"+name+"/compress", src)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s compress: status %d: %s", name, resp.StatusCode, comp)
		}
		if got := resp.Header.Get("X-Codec"); got != name {
			t.Fatalf("%s compress: X-Codec = %q", name, got)
		}
		resp, back := post(t, ts.URL+"/v1/"+name+"/decompress", comp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s decompress: status %d: %s", name, resp.StatusCode, back)
		}
		if !bytes.Equal(back, src) {
			t.Fatalf("%s: round trip mismatch (%d bytes in, %d back)", name, len(src), len(back))
		}
	}
}

// TestUnknownCodec404 covers both unknown algorithm and unknown operation.
func TestUnknownCodec404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/gzip/compress", []byte("x"))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown codec: status %d, want 404", resp.StatusCode)
	}
	if !strings.Contains(string(body), "lz77, lzw, bwt") {
		t.Fatalf("unknown codec error should list registry names, got %q", body)
	}
	resp, _ = post(t, ts.URL+"/v1/lz77/transmogrify", []byte("x"))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown op: status %d, want 404", resp.StatusCode)
	}
}

// TestOversizedBody413 checks the request size cap.
func TestOversizedBody413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1024})
	resp, _ := post(t, ts.URL+"/v1/lz77/compress", make([]byte, 4096))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	// At the cap is still fine.
	resp, _ = post(t, ts.URL+"/v1/lz77/compress", make([]byte, 1024))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("body at cap: status %d, want 200", resp.StatusCode)
	}
}

// TestCorruptDecompress400 feeds truncated streams to every codec's
// decompress endpoint.
func TestCorruptDecompress400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := []byte(strings.Repeat("corrupt me please ", 50))
	for _, c := range codec.All() {
		comp, err := c.Compress(src)
		if err != nil {
			t.Fatalf("%s: compress: %v", c.Name, err)
		}
		resp, body := post(t, ts.URL+"/v1/"+c.Name+"/decompress", comp[:len(comp)/2])
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s corrupt decompress: status %d, want 400 (%s)", c.Name, resp.StatusCode, body)
		}
	}
}

// bwtZeroRunBomb is a 154-byte bwt stream that declares a 10-byte block
// but codes 24 RUNA digits, a zero run of 2^24-1 bytes. Its one Huffman
// table gives RUNA (symbol 0) the code 0 and EOB (symbol 258) the code 1.
func bwtZeroRunBomb() []byte {
	var w huffcoding.BitWriter
	for _, field := range []struct {
		v    uint32
		bits uint
	}{
		{0x425a4732, 32}, // magic
		{1, 32},          // blocks
		{10, 32},         // block length
		{0, 32},          // origPtr
		{1, 3},           // tables
		{1, 32},          // groups of up to 50 symbols
		{0, 3},           // the group's table
	} {
		w.WriteBits(field.v, field.bits)
	}
	for sym := 0; sym < 259; sym++ {
		if sym == 0 || sym == 258 {
			w.WriteBits(1, 4)
		} else {
			w.WriteBits(0, 4)
		}
	}
	for i := 0; i < 24; i++ {
		w.WriteBit(0)
	}
	w.WriteBit(1)
	return w.Bytes()
}

// TestDecompressBomb400 posts the zero-run bomb, which the bwt decoder
// must reject as corrupt before it allocates the run.
func TestDecompressBomb400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/bwt/decompress", bwtZeroRunBomb())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bomb decompress: status %d, want 400 (%s)", resp.StatusCode, body)
	}
}

// TestCacheHitAndCounters sends the same body twice and checks the second
// response is served from cache, with counters visible in the registry.
func TestCacheHitAndCounters(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := []byte(strings.Repeat("cache me ", 200))
	resp, first := post(t, ts.URL+"/v1/bwt/compress", body)
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("first request X-Cache = %q, want MISS", got)
	}
	resp, second := post(t, ts.URL+"/v1/bwt/compress", body)
	if got := resp.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("second request X-Cache = %q, want HIT", got)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cached response differs from computed response")
	}
	snap := s.Registry().Snapshot()
	if snap.Counters["server.cache.hits"] != 1 || snap.Counters["server.cache.misses"] != 1 {
		t.Fatalf("cache counters = hits %d misses %d, want 1/1",
			snap.Counters["server.cache.hits"], snap.Counters["server.cache.misses"])
	}
	if snap.Counters["server.requests"] != 2 {
		t.Fatalf("server.requests = %d, want 2", snap.Counters["server.requests"])
	}
}

// TestCacheDisabled runs with a negative budget: everything is a miss and
// nothing breaks.
func TestCacheDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheBytes: -1})
	body := []byte("no cache for you")
	for i := 0; i < 2; i++ {
		resp, _ := post(t, ts.URL+"/v1/lzw/compress", body)
		if got := resp.Header.Get("X-Cache"); got != "MISS" {
			t.Fatalf("request %d with cache disabled: X-Cache = %q, want MISS", i, got)
		}
	}
}

// TestMetricsEndpoint checks /metrics is a canonical obs snapshot: parseable
// as obs.Snapshot, containing cache counters and the latency histogram.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/lz77/compress", []byte(strings.Repeat("metrics ", 64)))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics is not a canonical snapshot: %v", err)
	}
	for _, c := range []string{"server.cache.hits", "server.cache.misses", "server.cache.evictions",
		"server.requests", "server.bytes_in", "server.bytes_out"} {
		if _, ok := snap.Counters[c]; !ok {
			t.Fatalf("/metrics missing counter %q (have %v)", c, snap.Counters)
		}
	}
	h, ok := snap.Histograms["server.request_latency_us"]
	if !ok {
		t.Fatal("/metrics missing server.request_latency_us histogram")
	}
	if h.Count == 0 {
		t.Fatal("latency histogram recorded no observations")
	}
}

// TestHealthz checks the liveness probe returns the structured JSON
// health report: build identity, uptime counters, and cache occupancy.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d body %q", resp.StatusCode, body)
	}
	var h struct {
		Status         string            `json:"status"`
		Version        string            `json:"version"`
		Go             string            `json:"go"`
		Codecs         []string          `json:"codecs"`
		Workers        int               `json:"workers"`
		UptimeSimSteps uint64            `json:"uptime_sim_steps"`
		Breakers       map[string]string `json:"breakers"`
		Cache          struct {
			Enabled bool `json:"enabled"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("/healthz is not JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" || h.Version == "" || h.Go == "" {
		t.Fatalf("healthz identity fields: %+v", h)
	}
	if len(h.Codecs) == 0 || h.Workers < 1 || !h.Cache.Enabled {
		t.Fatalf("healthz capacity fields: %+v", h)
	}
	if h.UptimeSimSteps != 0 {
		t.Fatalf("healthz before traffic: uptime_sim_steps = %d, want 0 (probes advance no sim step)", h.UptimeSimSteps)
	}
	// Every codec/op breaker is listed from the first probe, closed.
	want := map[string]string{}
	for _, name := range codec.Names() {
		want[name+"/compress"] = "closed"
		want[name+"/decompress"] = "closed"
	}
	if len(want) != 6 || !reflect.DeepEqual(h.Breakers, want) {
		t.Fatalf("healthz before traffic: breakers = %v, want %v", h.Breakers, want)
	}
}

// TestWorkersConfig checks the gate picks up -workers style config.
func TestWorkersConfig(t *testing.T) {
	s := New(Config{Workers: 3})
	if s.Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", s.Workers())
	}
}

// TestCacheUnreachableFromOutside: no request reaches a cache tier except
// through /v1, with or without a fault registry. Every method on every
// /internal/cache path, .../corrupt included, is a 404; a stored entry
// stays byte-exact; and a client that computes the key of a body other
// clients will send cannot plant bytes under it, so that body's first
// /v1 request is a miss answered with the codec's own bytes.
func TestCacheUnreachableFromOutside(t *testing.T) {
	cd, _ := codec.Lookup("lz77")
	for _, faults := range []*fault.Registry{nil, fault.NewRegistry(7)} {
		t.Run(fmt.Sprintf("faults=%t", faults != nil), func(t *testing.T) {
			reg := obs.NewRegistry()
			s, ts := newTestServer(t, Config{Registry: reg, Faults: faults})
			stored := []byte(strings.Repeat("stored body ", 30))
			storedKey := cacheKey("compress", "lz77", "", stored)
			_, want := post(t, ts.URL+"/v1/lz77/compress", stored)
			fresh := []byte(strings.Repeat("poisoned body ", 30))
			freshKey := cacheKey("compress", "lz77", "", fresh)

			// Each subtest pins one property; they run in order, so
			// "stored" and "fresh" see the cache the routes left behind.
			t.Run("routes", func(t *testing.T) {
				var paths []string
				for _, key := range []Key{storedKey, freshKey} {
					hexKey := hex.EncodeToString(key[:])
					paths = append(paths, "/internal/cache/"+hexKey, "/internal/cache/"+hexKey+"/corrupt?rand=1")
				}
				for _, path := range append(paths, "/internal/cache") {
					for _, method := range []string{http.MethodGet, http.MethodPut, http.MethodPost, http.MethodPatch, http.MethodDelete} {
						req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("GARBAGE"))
						if err != nil {
							t.Fatal(err)
						}
						resp, err := http.DefaultClient.Do(req)
						if err != nil {
							t.Fatalf("%s %s: %v", method, path, err)
						}
						resp.Body.Close()
						if resp.StatusCode != http.StatusNotFound {
							t.Errorf("%s %s: status %d, want 404", method, path, resp.StatusCode)
						}
					}
				}
			})

			t.Run("stored", func(t *testing.T) {
				if got, ok := s.cache.Get(storedKey); !ok || !bytes.Equal(got, want) {
					t.Fatalf("stored entry after the requests: present %t, %d bytes; want the first response's %d bytes", ok, len(got), len(want))
				}
				resp, out := post(t, ts.URL+"/v1/lz77/compress", stored)
				if resp.Header.Get("X-Cache") != "HIT" || !bytes.Equal(out, want) {
					t.Fatalf("/v1 of the stored body: X-Cache %q, %d bytes; want a HIT with the first response's %d bytes",
						resp.Header.Get("X-Cache"), len(out), len(want))
				}
				if got := reg.Snapshot().Counters["server.cache.corruptions_detected"]; got != 0 {
					t.Fatalf("the requests damaged the entry: %d corruptions detected", got)
				}
			})

			t.Run("fresh", func(t *testing.T) {
				if _, ok := s.cache.Get(freshKey); ok {
					t.Fatal("an entry appeared under the fresh body's key")
				}
				resp, out := post(t, ts.URL+"/v1/lz77/compress", fresh)
				if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "MISS" {
					t.Fatalf("/v1 of the fresh body: status %d, X-Cache %q; want 200 MISS", resp.StatusCode, resp.Header.Get("X-Cache"))
				}
				if codecOut, err := cd.Compress(fresh); err != nil || !bytes.Equal(out, codecOut) {
					t.Fatalf("/v1 of the fresh body served %d bytes, want the codec's own %d bytes (err %v)", len(out), len(codecOut), err)
				}
			})
		})
	}
}

// TestHealthzReportsChainStats: /healthz reports the occupancy of the
// whole cache chain the server owns (a tiered chain sums its tiers), and
// its cache block carries only the enabled, backend, entries and bytes
// keys, on every topology zipserverd can build.
func TestHealthzReportsChainStats(t *testing.T) {
	chains := []struct {
		name  string
		build func(t *testing.T, reg *obs.Registry) CacheBackend
	}{
		{"lru", func(t *testing.T, reg *obs.Registry) CacheBackend {
			return NewLRUBackend(1<<20, reg, "server.cache")
		}},
		{"disk", func(t *testing.T, reg *obs.Registry) CacheBackend {
			d, err := NewDiskBackend(t.TempDir(), 1<<20, reg, "server.cache", nil)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
		{"tiered", func(t *testing.T, reg *obs.Registry) CacheBackend {
			cold, err := NewDiskBackend(t.TempDir(), 1<<20, reg, "server.cache.cold", nil)
			if err != nil {
				t.Fatal(err)
			}
			return NewTiered(NewLRUBackend(1<<20, reg, "server.cache.hot"), cold, reg, "server.cache")
		}},
		{"disabled", func(*testing.T, *obs.Registry) CacheBackend { return nil }},
	}
	for _, c := range chains {
		t.Run(c.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cache := c.build(t, reg)
			cfg := Config{Registry: reg, Cache: cache}
			if cache == nil {
				cfg.CacheBytes = -1
			} else {
				t.Cleanup(func() { cache.Close() })
			}
			_, ts := newTestServer(t, cfg)
			for i := 0; i < 3; i++ {
				post(t, ts.URL+"/v1/lz77/compress", []byte(strings.Repeat(fmt.Sprint("healthz body ", i, " "), 20)))
			}

			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var raw struct {
				Cache map[string]json.RawMessage `json:"cache"`
			}
			var h healthResponse
			if err := json.Unmarshal(body, &raw); err != nil {
				t.Fatalf("/healthz is not JSON: %v\n%s", err, body)
			}
			if err := json.Unmarshal(body, &h); err != nil {
				t.Fatal(err)
			}
			for k := range raw.Cache {
				if k != "enabled" && k != "backend" && k != "entries" && k != "bytes" {
					t.Errorf("healthz cache block has key %q; want only enabled, backend, entries, bytes", k)
				}
			}

			if cache == nil {
				if h.Cache != (healthCache{}) {
					t.Fatalf("healthz cache = %+v, want the zero block of a disabled cache", h.Cache)
				}
				return
			}
			entries, n := cache.Stats()
			want := healthCache{Enabled: true, Backend: cache.Name(), Entries: entries, Bytes: n}
			if h.Cache != want || entries == 0 {
				t.Fatalf("healthz cache = %+v, want %+v after three stored responses", h.Cache, want)
			}
		})
	}
}
