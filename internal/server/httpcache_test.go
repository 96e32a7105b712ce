package server

// Unit coverage for the RFC 9110/9111 request-header parsers plus
// end-to-end proof of the cache envelope on /v1: strong ETags,
// If-None-Match revalidation to 304 before any codec work, Cache-Control
// request directives, and Vary partitioning on the level header.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/zipchannel/zipchannel/internal/obs"
)

func TestParseLevel(t *testing.T) {
	for _, ok := range []string{"", "0", "5", "9"} {
		if got, err := parseLevel(ok); err != nil || got != ok {
			t.Fatalf("parseLevel(%q) = %q, %v", ok, got, err)
		}
	}
	for _, bad := range []string{"a", "10", " 1", "-1", "3.5"} {
		if _, err := parseLevel(bad); err == nil {
			t.Fatalf("parseLevel(%q) should fail", bad)
		}
	}
}

func TestParseCacheControl(t *testing.T) {
	cases := []struct {
		in   string
		want cacheControl
	}{
		{"", cacheControl{MaxAge: -1}},
		{"no-cache", cacheControl{NoCache: true, MaxAge: -1}},
		{"No-Store , max-age=60", cacheControl{NoStore: true, MaxAge: 60}},
		{`max-age="30"`, cacheControl{MaxAge: 30}},
		{"max-age=-5", cacheControl{MaxAge: -1}},                                   // negative: ignored
		{"max-age=abc", cacheControl{MaxAge: -1}},                                  // junk value: ignored
		{"max-age", cacheControl{MaxAge: -1}},                                      // valueless: ignored
		{"private, immutable, stale-while-revalidate=7", cacheControl{MaxAge: -1}}, // unknown directives
		{"=,, =;===,no-cache", cacheControl{NoCache: true, MaxAge: -1}},            // garbage + real
	}
	for _, c := range cases {
		if got := parseCacheControl(c.in); got != c.want {
			t.Fatalf("parseCacheControl(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestParseIfNoneMatch(t *testing.T) {
	cases := []struct {
		in       string
		tags     []string
		wildcard bool
	}{
		{`"abc"`, []string{"abc"}, false},
		{`W/"abc", "def"`, []string{"abc", "def"}, false},
		{`w/"abc"`, []string{"abc"}, false},
		{`*`, nil, true},
		{`"a", *, "b"`, []string{"a", "b"}, true},
		{``, nil, false},
		{`W/`, nil, false},
		{`garbage, "ok"`, []string{"ok"}, false},
		{`"unterminated`, nil, false},
		{`""`, []string{""}, false},
	}
	for _, c := range cases {
		tags, wc := parseIfNoneMatch(c.in)
		if wc != c.wildcard || len(tags) != len(c.tags) {
			t.Fatalf("parseIfNoneMatch(%q) = %v, %v; want %v, %v", c.in, tags, wc, c.tags, c.wildcard)
		}
		for i := range tags {
			if tags[i] != c.tags[i] {
				t.Fatalf("parseIfNoneMatch(%q) tag %d = %q, want %q", c.in, i, tags[i], c.tags[i])
			}
		}
	}
}

func TestEtagForAndMatches(t *testing.T) {
	key := cacheKey("compress", "lz77", "", []byte("hello"))
	etag := etagFor(key)
	if len(etag) != 66 || etag[0] != '"' || etag[65] != '"' {
		t.Fatalf("etag %q is not a quoted 64-hex string", etag)
	}
	if !etagMatches(etag, etag) {
		t.Fatal("strong self-match failed")
	}
	if !etagMatches("W/"+etag, etag) {
		t.Fatal("weak comparison should match a W/ validator")
	}
	if !etagMatches("*", etag) {
		t.Fatal("wildcard should match")
	}
	if etagMatches(`"deadbeef"`, etag) {
		t.Fatal("mismatched tag should not match")
	}
}

// postV1 issues one /v1 request with optional headers and returns the
// response (body drained into resp-independent storage).
func postV1(t *testing.T, ts *httptest.Server, path string, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestHTTPCacheEnvelopeE2E drives the full conditional-request flow
// against a live server: envelope on first response, HIT on repeat,
// 304 on revalidation (counted, no body), 200 on a stale validator.
func TestHTTPCacheEnvelopeE2E(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Registry: reg})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := []byte("the quick brown fox jumps over the lazy dog")
	resp, out := postV1(t, ts, "/v1/lz77/compress", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if len(etag) != 66 {
		t.Fatalf("ETag %q is not a quoted sha256", etag)
	}
	if got := resp.Header.Get("Vary"); got != LevelHeader {
		t.Fatalf("Vary = %q, want %q", got, LevelHeader)
	}
	if got := resp.Header.Get("Cache-Control"); got != "public, max-age=300" {
		t.Fatalf("Cache-Control = %q", got)
	}
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("first request X-Cache = %q", got)
	}

	resp2, out2 := postV1(t, ts, "/v1/lz77/compress", body, nil)
	if resp2.Header.Get("X-Cache") != "HIT" || !bytes.Equal(out, out2) {
		t.Fatalf("repeat request: X-Cache=%q, bytes equal=%v", resp2.Header.Get("X-Cache"), bytes.Equal(out, out2))
	}
	if resp2.Header.Get("ETag") != etag {
		t.Fatalf("ETag changed across identical requests: %q vs %q", etag, resp2.Header.Get("ETag"))
	}

	// Revalidation: matching validator → 304, empty body, envelope kept.
	resp3, out3 := postV1(t, ts, "/v1/lz77/compress", body, map[string]string{"If-None-Match": etag})
	if resp3.StatusCode != http.StatusNotModified || len(out3) != 0 {
		t.Fatalf("revalidation: status %d, %d body bytes", resp3.StatusCode, len(out3))
	}
	if resp3.Header.Get("ETag") != etag {
		t.Fatalf("304 must carry the ETag, got %q", resp3.Header.Get("ETag"))
	}
	if got := reg.Counter("server.http.not_modified").Value(); got != 1 {
		t.Fatalf("server.http.not_modified = %d, want 1", got)
	}

	// Weak validator and wildcard also revalidate.
	if resp, _ := postV1(t, ts, "/v1/lz77/compress", body, map[string]string{"If-None-Match": "W/" + etag}); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("weak validator: status %d", resp.StatusCode)
	}
	if resp, _ := postV1(t, ts, "/v1/lz77/compress", body, map[string]string{"If-None-Match": "*"}); resp.StatusCode != http.StatusNotModified {
		t.Fatalf("wildcard validator: status %d", resp.StatusCode)
	}

	// A stale validator falls through to a full (cached) response.
	resp4, out4 := postV1(t, ts, "/v1/lz77/compress", body, map[string]string{"If-None-Match": `"0000"`})
	if resp4.StatusCode != http.StatusOK || !bytes.Equal(out4, out) {
		t.Fatalf("stale validator: status %d", resp4.StatusCode)
	}
}

// TestVaryOnLevelE2E: the level header partitions the key space — same
// body, different level, different ETag and separate cache entries —
// and an invalid level is a 400, not a silent default.
func TestVaryOnLevelE2E(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Registry: reg})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := []byte("partition me by level")
	respDefault, _ := postV1(t, ts, "/v1/lzw/compress", body, nil)
	respLeveled, _ := postV1(t, ts, "/v1/lzw/compress", body, map[string]string{LevelHeader: "7"})
	if respDefault.Header.Get("ETag") == respLeveled.Header.Get("ETag") {
		t.Fatal("level header did not partition the ETag space")
	}
	if respLeveled.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("leveled first request X-Cache = %q", respLeveled.Header.Get("X-Cache"))
	}
	respLeveled2, _ := postV1(t, ts, "/v1/lzw/compress", body, map[string]string{LevelHeader: "7"})
	if respLeveled2.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("leveled repeat X-Cache = %q", respLeveled2.Header.Get("X-Cache"))
	}

	respBad, out := postV1(t, ts, "/v1/lzw/compress", body, map[string]string{LevelHeader: "fast"})
	if respBad.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), LevelHeader) {
		t.Fatalf("bad level: status %d, body %q", respBad.StatusCode, out)
	}
	if got := reg.Counter("server.errors.bad_level").Value(); got != 1 {
		t.Fatalf("server.errors.bad_level = %d, want 1", got)
	}
}

// TestCacheControlDirectivesE2E: no-store leaves no trace in the cache;
// no-cache recomputes but still stores (so a later plain request hits).
func TestCacheControlDirectivesE2E(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Registry: reg})
	ts := httptest.NewServer(s)
	defer ts.Close()

	noStore := map[string]string{"Cache-Control": "no-store"}
	body := []byte("never stored")
	for i := 0; i < 2; i++ {
		resp, _ := postV1(t, ts, "/v1/lz77/compress", body, noStore)
		if resp.Header.Get("X-Cache") != "MISS" {
			t.Fatalf("no-store request %d: X-Cache = %q", i, resp.Header.Get("X-Cache"))
		}
	}
	if entries, _ := s.cache.Stats(); entries != 0 {
		t.Fatalf("no-store left %d cache entries", entries)
	}

	// no-cache: bypasses the lookup but writes back, so the third plain
	// request is a hit against the entry the second request stored.
	body2 := []byte("recompute but store")
	postV1(t, ts, "/v1/lz77/compress", body2, map[string]string{"Cache-Control": "no-cache"})
	resp, _ := postV1(t, ts, "/v1/lz77/compress", body2, map[string]string{"Cache-Control": "no-cache"})
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("no-cache repeat should recompute, X-Cache = %q", resp.Header.Get("X-Cache"))
	}
	resp2, _ := postV1(t, ts, "/v1/lz77/compress", body2, nil)
	if resp2.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("plain request after no-cache should hit, X-Cache = %q", resp2.Header.Get("X-Cache"))
	}
}

// TestCacheMaxAgeConfig: the advertised freshness lifetime follows
// Config.CacheMaxAge, including the negative=disabled convention.
func TestCacheMaxAgeConfig(t *testing.T) {
	s := New(Config{CacheMaxAge: 60})
	ts := httptest.NewServer(s)
	resp, _ := postV1(t, ts, "/v1/lz77/compress", []byte("x"), nil)
	ts.Close()
	if got := resp.Header.Get("Cache-Control"); got != "public, max-age=60" {
		t.Fatalf("Cache-Control = %q", got)
	}

	s2 := New(Config{CacheMaxAge: -1})
	ts2 := httptest.NewServer(s2)
	resp2, _ := postV1(t, ts2, "/v1/lz77/compress", []byte("x"), nil)
	ts2.Close()
	if got := resp2.Header.Get("Cache-Control"); got != "" {
		t.Fatalf("disabled max-age still advertises %q", got)
	}
	if resp2.Header.Get("ETag") == "" {
		t.Fatal("ETag should survive max-age disablement")
	}
}
