package server

// Peer wiring derived from the tier chain: which tier is the remote peer,
// what an instance serves to its peers, and what a peered /healthz costs.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/zipchannel/zipchannel/internal/obs"
)

// TestPeerTier covers the three chains peerTier meets: the cache is the
// peer, the peer is the cold tier, and there is no peer.
func TestPeerTier(t *testing.T) {
	reg := obs.NewRegistry()
	peer := NewPeerBackend("http://127.0.0.1:1", 0, reg, "peer", nil)
	lru := NewLRUBackend(1<<10, reg, "lru")

	t.Run("self", func(t *testing.T) {
		p, local := peerTier(peer)
		if p != peer || local != nil {
			t.Fatalf("peerTier(peer) = %v, %v; want the peer and no local view", p, local)
		}
	})
	t.Run("cold", func(t *testing.T) {
		p, local := peerTier(NewTiered(lru, peer, reg, "tiered"))
		if p != peer || local != CacheBackend(lru) {
			t.Fatalf("peerTier(tiered(lru/peer)) = %v, %v; want the peer and the hot tier", p, local)
		}
	})
	t.Run("none", func(t *testing.T) {
		chain := NewTiered(lru, NewLRUBackend(1<<10, reg, "cold"), reg, "tiered")
		p, local := peerTier(chain)
		if p != nil || local != CacheBackend(chain) {
			t.Fatalf("peerTier(tiered(lru/lru)) = %v, %v; want no peer and the whole chain", p, local)
		}
	})
}

// surfaceCounter wraps a server and counts the requests on its
// /internal/cache/{key} surface, refusing them past a small limit so that
// a peering loop shows up as a count instead of unbounded recursion. The
// surface is GET-only, so every counted request is a GET.
type surfaceCounter struct {
	h    http.Handler
	gets atomic.Int64
}

func (c *surfaceCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/internal/cache/") && c.gets.Add(1) > 8 {
		http.Error(w, "peering loop", http.StatusServiceUnavailable)
		return
	}
	c.h.ServeHTTP(w, r)
}

// TestPeeredPairTerminates: two instances whose cold tiers are each
// other's PeerBackend, with nothing telling either which view to serve. A
// /v1 miss on A costs exactly one GET on B, answered from B's local tier;
// A's write-through sends nothing to the read-only peer tier, and B
// never calls A back.
func TestPeeredPairTerminates(t *testing.T) {
	servers := [2]*httptest.Server{httptest.NewUnstartedServer(nil), httptest.NewUnstartedServer(nil)}
	var counters [2]*surfaceCounter
	var regs [2]*obs.Registry
	for i, ts := range servers {
		reg := obs.NewRegistry()
		peer := NewPeerBackend("http://"+servers[1-i].Listener.Addr().String(), 0, reg, "server.cache.peer", nil)
		local := NewLRUBackend(1<<20, reg, "server.cache.local")
		counters[i] = &surfaceCounter{h: New(Config{Registry: reg, Cache: NewTiered(local, peer, reg, "server.cache")})}
		regs[i] = reg
		ts.Config.Handler = counters[i]
		ts.Start()
		t.Cleanup(ts.Close)
	}
	a, b := counters[0], counters[1]

	resp, _ := post(t, servers[0].URL+"/v1/lz77/compress", []byte(strings.Repeat("peered pair ", 40)))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "MISS" {
		t.Fatalf("A: status %d, X-Cache %q; want 200 MISS", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if got := b.gets.Load(); got != 1 {
		t.Errorf("requests on B's /internal/cache/{key} = %d, want 1: A's GET and no write-through PUT", got)
	}
	if got := a.gets.Load(); got != 0 {
		t.Errorf("B called A back: %d requests", got)
	}
	snapA, snapB := regs[0].Snapshot(), regs[1].Snapshot()
	if got := snapA.Counters["server.cache.peer.misses"]; got != 1 {
		t.Errorf("A's peer tier misses = %d, want 1", got)
	}
	for _, name := range []string{"server.cache.peer.misses", "server.cache.peer.hits"} {
		if got := snapB.Counters[name]; got != 0 {
			t.Errorf("B's %s = %d, want 0: B consulted its own peer tier", name, got)
		}
	}
	for i, snap := range []*obs.Snapshot{snapA, snapB} {
		if got := snap.Counters["server.peerapi.served"]; got != 0 {
			t.Errorf("instance %d served %d peer hits, want 0", i, got)
		}
	}
}

// byteCounter wraps a server and records the body size of its last
// GET /internal/cache response.
type byteCounter struct {
	h    http.Handler
	last atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.ResponseWriter.Write(p)
}

func (c *byteCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/internal/cache" {
		c.h.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	c.h.ServeHTTP(cw, r)
	c.last.Store(cw.n)
}

// TestPeeredHealthzCheap: a peered /healthz reads the peer's occupancy
// through one constant-size index request — the body the peer returns
// grows only by the digits of its counts, not by the keys it holds — and
// still reports the peer's own Stats.
func TestPeeredHealthzCheap(t *testing.T) {
	reg := obs.NewRegistry()
	store := NewLRUBackend(1<<20, reg, "remote.cache")
	pc := &byteCounter{h: New(Config{Registry: reg, Cache: store})}
	remote := httptest.NewServer(pc)
	t.Cleanup(remote.Close)
	_, ts := newTestServer(t, Config{Cache: NewPeerBackend(remote.URL, 0, obs.NewRegistry(), "server.cache", nil)})

	healthz := func() (healthCache, int64) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h healthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h.Cache, pc.last.Load()
	}
	digits := func(n int64) int64 { return int64(len(fmt.Sprint(n))) }

	empty, emptySize := healthz()
	for i := 0; i < 500; i++ {
		store.Put(cacheKey("compress", "lz77", "", []byte(fmt.Sprint(i))), bytes.Repeat([]byte{byte(i)}, 100))
	}
	full, fullSize := healthz()

	for _, h := range []healthCache{empty, full} {
		if h.Backend != "peer" || h.PeerState != "closed" {
			t.Fatalf("healthz cache = %+v, want backend peer, peer_state closed", h)
		}
	}
	if entries, n := store.Stats(); full.Entries != entries || full.Bytes != n {
		t.Fatalf("healthz reports %d entries / %d bytes, peer holds %d / %d", full.Entries, full.Bytes, entries, n)
	}
	if empty.Entries != 0 || empty.Bytes != 0 {
		t.Fatalf("empty peer reported %d entries / %d bytes", empty.Entries, empty.Bytes)
	}
	grow := digits(int64(full.Entries)) - 1 + digits(full.Bytes) - 1
	if fullSize != emptySize+grow {
		t.Fatalf("peer index body %d bytes at 500 entries vs %d at 0; want growth of %d digits only",
			fullSize, emptySize, grow)
	}
}
