package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"github.com/zipchannel/zipchannel/internal/compress/codec"
	"github.com/zipchannel/zipchannel/internal/par"
)

// TestConcurrentClients hammers a single server with ~32 concurrent clients
// mixing codecs, round trips, cache hits (shared bodies), and error paths,
// then checks the registry accounting. Run under -race this is the
// server's concurrency contract: the shared registry and its per-codec/op
// handles, the worker gate, and the LRU cache must all be safe together.
func TestConcurrentClients(t *testing.T) {
	const clients = 32
	const requestsPerClient = 8

	s := New(Config{Workers: 4, CacheBytes: 1 << 20, MaxBodyBytes: 1 << 16})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A small shared body pool guarantees cross-client cache hits.
	bodies := make([][]byte, 5)
	rng := rand.New(rand.NewSource(42))
	for i := range bodies {
		b := make([]byte, 2048)
		for j := range b {
			b[j] = byte('a' + rng.Intn(4))
		}
		bodies[i] = b
	}
	names := codec.Names()

	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(par.SplitSeed(7, fmt.Sprintf("client-%d", c))))
			for r := 0; r < requestsPerClient; r++ {
				name := names[rng.Intn(len(names))]
				body := bodies[rng.Intn(len(bodies))]
				comp, status, err := doPost(ts.URL+"/v1/"+name+"/compress", body)
				if err != nil {
					errs[c] = err
					return
				}
				if status != http.StatusOK {
					errs[c] = fmt.Errorf("compress %s: status %d", name, status)
					return
				}
				back, status, err := doPost(ts.URL+"/v1/"+name+"/decompress", comp)
				if err != nil {
					errs[c] = err
					return
				}
				if status != http.StatusOK || !bytes.Equal(back, body) {
					errs[c] = fmt.Errorf("round trip %s: status %d, %d bytes back", name, status, len(back))
					return
				}
				// Sprinkle error paths into the mix.
				switch rng.Intn(3) {
				case 0:
					if _, status, _ := doPost(ts.URL+"/v1/nope/compress", body); status != http.StatusNotFound {
						errs[c] = fmt.Errorf("unknown codec: status %d", status)
						return
					}
				case 1:
					if _, status, _ := doPost(ts.URL+"/v1/"+name+"/decompress", comp[:len(comp)/3]); status != http.StatusBadRequest {
						errs[c] = fmt.Errorf("corrupt decompress: status %d", status)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}

	snap := s.Registry().Snapshot()
	wantOK := uint64(clients * requestsPerClient * 2) // compress + decompress per loop
	if got := snap.Counters["server.requests"]; got < wantOK {
		t.Fatalf("server.requests = %d, want >= %d", got, wantOK)
	}
	if snap.Counters["server.cache.hits"] == 0 {
		t.Fatal("expected cross-client cache hits with a 5-body pool")
	}
	if h := snap.Histograms["server.request_latency_us"]; h.Count < wantOK {
		t.Fatalf("latency histogram count = %d, want >= %d", h.Count, wantOK)
	}
}

func doPost(url string, body []byte) ([]byte, int, error) {
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	return out, resp.StatusCode, nil
}
