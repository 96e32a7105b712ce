package server

// The read-only /internal/cache contract: nothing from outside the process
// can write to a cache tier, and a peer tier reads back exactly the bytes
// its peer computed.

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"github.com/zipchannel/zipchannel/internal/compress/codec"
	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
)

// send issues one request with body and returns its status.
func send(t *testing.T, method, url, body string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestCacheSurfaceRefusesPoisoning: a client that computes the key of a
// request other clients will send cannot plant bytes under it. The PUT is
// refused, nothing is stored, and the next /v1 request for that body is a
// miss answered with the codec's own bytes.
func TestCacheSurfaceRefusesPoisoning(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := []byte(strings.Repeat("poisoned body ", 30))
	key := cacheKey("compress", "lz77", "", body)

	if got := send(t, http.MethodPut, ts.URL+"/internal/cache/"+hex.EncodeToString(key[:]), "GARBAGE"); got != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /internal/cache/{key}: status %d, want 405", got)
	}
	if _, ok := s.cache.Get(key); ok {
		t.Fatal("refused PUT left an entry under the key")
	}
	resp, out := post(t, ts.URL+"/v1/lz77/compress", body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("/v1 after the PUT: status %d, X-Cache %q; want 200 MISS", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	cd, _ := codec.Lookup("lz77")
	want, err := cd.Compress(body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("/v1 after the PUT served %q, want the codec's own %d bytes", out, len(want))
	}
}

// TestCacheSurfaceGetOnly: every method but GET is refused on every
// /internal/cache path, .../corrupt included, with or without a fault
// registry. A refused request leaves the stored entry byte-exact.
func TestCacheSurfaceGetOnly(t *testing.T) {
	for _, faults := range []*fault.Registry{nil, fault.NewRegistry(7)} {
		t.Run(fmt.Sprintf("faults=%t", faults != nil), func(t *testing.T) {
			reg := obs.NewRegistry()
			_, ts := newTestServer(t, Config{Registry: reg, Faults: faults})
			body := []byte(strings.Repeat("read-only surface ", 30))
			key := cacheKey("compress", "lz77", "", body)
			_, want := post(t, ts.URL+"/v1/lz77/compress", body)

			hexKey := hex.EncodeToString(key[:])
			for _, path := range []string{"/internal/cache", "/internal/cache/" + hexKey, "/internal/cache/" + hexKey + "/corrupt?rand=1"} {
				for _, method := range []string{http.MethodPut, http.MethodPost, http.MethodPatch, http.MethodDelete} {
					if got := send(t, method, ts.URL+path, "GARBAGE"); got != http.StatusMethodNotAllowed && got != http.StatusNotFound {
						t.Errorf("%s %s: status %d, want 405 or 404", method, path, got)
					}
				}
			}
			resp, out := post(t, ts.URL+"/v1/lz77/compress", body)
			if resp.Header.Get("X-Cache") != "HIT" || !bytes.Equal(out, want) {
				t.Fatalf("/v1 after refused writes: X-Cache %q, %d bytes; want a HIT with the first response's %d bytes",
					resp.Header.Get("X-Cache"), len(out), len(want))
			}
			if got := reg.Snapshot().Counters["server.cache.corruptions_detected"]; got != 0 {
				t.Fatalf("refused writes damaged the entry: %d corruptions detected", got)
			}
		})
	}
}

// TestPeerTierReadPath: B, peered at A with empty local tiers, serves a
// request A computed as a hit from the peer tier, byte-identical to A's
// response; then concurrent Gets on a peer tier of A return A's bytes or
// miss, and are counted exactly.
func TestPeerTierReadPath(t *testing.T) {
	regA := obs.NewRegistry()
	_, a := newTestServer(t, Config{Registry: regA})
	regB := obs.NewRegistry()
	peer := NewPeerBackend(a.URL, 0, regB, "server.cache.peer", nil)
	local := NewLRUBackend(1<<20, regB, "server.cache.local")
	_, b := newTestServer(t, Config{Registry: regB, Cache: NewTiered(local, peer, regB, "server.cache")})

	body := []byte(strings.Repeat("computed on A ", 30))
	respA, outA := post(t, a.URL+"/v1/lz77/compress", body)
	if respA.StatusCode != http.StatusOK || respA.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("A: status %d, X-Cache %q; want 200 MISS", respA.StatusCode, respA.Header.Get("X-Cache"))
	}
	respB, outB := post(t, b.URL+"/v1/lz77/compress", body)
	if respB.StatusCode != http.StatusOK || respB.Header.Get("X-Cache") != "HIT" {
		t.Fatalf("B: status %d, X-Cache %q; want 200 HIT", respB.StatusCode, respB.Header.Get("X-Cache"))
	}
	if !bytes.Equal(outA, outB) {
		t.Fatalf("B's peer hit served %d bytes that differ from A's %d", len(outB), len(outA))
	}
	if got := regB.Snapshot().Counters["server.cache.peer.hits"]; got != 1 {
		t.Fatalf("B's server.cache.peer.hits = %d, want 1", got)
	}
	if got := regA.Snapshot().Counters["server.peerapi.served"]; got != 1 {
		t.Fatalf("A's server.peerapi.served = %d, want 1", got)
	}

	// Concurrent reads: every third Get asks for an absent key.
	reg := obs.NewRegistry()
	p := NewPeerBackend(a.URL, 0, reg, "server.cache.peer", nil)
	defer p.Close()
	present := cacheKey("compress", "lz77", "", body)
	const workers, ops = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < ops; n++ {
				key := present
				if n%3 == 0 {
					key = cacheKey("compress", "lz77", "", []byte(fmt.Sprint("absent ", w, n)))
				}
				got, ok := p.Get(key)
				if ok != (key == present) || (ok && !bytes.Equal(got, outA)) {
					errs <- fmt.Errorf("worker %d op %d: hit %t, %d bytes", w, n, ok, len(got))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	wantMisses := uint64(workers * ((ops + 2) / 3))
	if hits, misses := snap.Counters["server.cache.peer.hits"], snap.Counters["server.cache.peer.misses"]; hits != workers*ops-wantMisses || misses != wantMisses {
		t.Fatalf("peer hits/misses = %d/%d, want %d/%d", hits, misses, workers*ops-wantMisses, wantMisses)
	}
	if got := snap.Counters["server.cache.peer.errors"]; got != 0 {
		t.Fatalf("server.cache.peer.errors = %d, want 0", got)
	}
}
