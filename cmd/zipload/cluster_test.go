package main

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/server"
)

// TestRingProperties: deterministic pick, every instance owns a share of
// the key space, and growing the cluster by one instance remaps only a
// minority of keys (the consistent-hash contract; mod-N would remap most).
func TestRingProperties(t *testing.T) {
	urls3 := []string{"http://a", "http://b", "http://c"}
	r3 := newRing(urls3)

	keys := make([][]byte, 0, 1000)
	for i := 0; i < 1000; i++ {
		keys = append(keys, []byte(fmt.Sprintf("body-%d", i)))
	}

	counts := make([]int, 3)
	for _, k := range keys {
		idx := r3.pick("lz77", k)
		if idx != r3.pick("lz77", k) {
			t.Fatal("pick is not deterministic")
		}
		counts[idx]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("instance %d owns no keys: %v", i, counts)
		}
	}

	r4 := newRing(append(append([]string{}, urls3...), "http://d"))
	moved := 0
	for _, k := range keys {
		if r3.pick("lz77", k) != r4.pick("lz77", k) {
			moved++
		}
	}
	// Ideal is 1/4 of keys moving to the new instance; allow slack for
	// vnode imbalance but fail if it approaches mod-N reshuffling.
	if moved > len(keys)/2 {
		t.Fatalf("adding one instance moved %d/%d keys — not consistent hashing", moved, len(keys))
	}

	single := newRing([]string{"http://only"})
	if got := single.pick("lzw", []byte("x")); got != 0 {
		t.Fatalf("single-instance ring picked %d", got)
	}
}

// TestXorDigestOrderInsensitive: folding the same bodies in any order
// lands on the same accumulator, and any changed body changes it.
func TestXorDigestOrderInsensitive(t *testing.T) {
	bodies := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	var fwd, rev, tampered [32]byte
	for _, b := range bodies {
		xorDigest(&fwd, b)
	}
	for i := len(bodies) - 1; i >= 0; i-- {
		xorDigest(&rev, bodies[i])
	}
	if fwd != rev {
		t.Fatal("digest depends on fold order")
	}
	xorDigest(&tampered, bodies[0])
	xorDigest(&tampered, []byte("BETA"))
	xorDigest(&tampered, bodies[2])
	if fwd == tampered {
		t.Fatal("digest did not detect a changed body")
	}
}

// tieredCore builds the server `zipserverd -cache-mb 4 -cache-cold-mb 64
// -cache-dir dir` runs: a hot LRU over a disk cold tier in dir.
func tieredCore(t *testing.T, dir string) *server.Server {
	t.Helper()
	s, err := newTieredCore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// newTieredCore is tieredCore for goroutines other than the test's.
func newTieredCore(dir string) (*server.Server, error) {
	reg := obs.NewRegistry()
	hot := server.NewLRUBackend(4<<20, reg, "server.cache.hot")
	cold, err := server.NewDiskBackend(dir, 64<<20, reg, "server.cache.cold", nil)
	if err != nil {
		return nil, err
	}
	cache := server.NewTiered(hot, cold, reg, "server.cache")
	return server.New(server.Config{Workers: 2, Registry: reg, Cache: cache}), nil
}

// TestRunLoadClusterMatchesSingleBaseline: the same seeded, Zipf-skewed
// request stream driven (a) across two consistent-hash-routed instances,
// each a hot LRU over its own disk cold tier, and (b) against one
// plain-LRU instance. Zero errors on both, per-tier hit rates in the
// cluster report, and the order-insensitive response digests must be
// identical: the cluster may change where bytes come from, never the
// bytes.
func TestRunLoadClusterMatchesSingleBaseline(t *testing.T) {
	tsA := httptest.NewServer(tieredCore(t, t.TempDir()))
	defer tsA.Close()
	tsB := httptest.NewServer(tieredCore(t, t.TempDir()))
	defer tsB.Close()

	base := loadConfig{
		Clients:  2,
		Requests: 30,
		Codecs:   []string{"lz77", "lzw", "bwt"},
		Seed:     5,
		Verify:   true,
		BodyCap:  1024,
		ZipfS:    1.3,
		Digest:   true,
	}

	cluster := base
	cluster.BaseURL = tsA.URL
	cluster.URLs = []string{tsA.URL, tsB.URL}
	resC, err := runLoad(cluster)
	if err != nil {
		t.Fatal(err)
	}
	if resC.Errors != 0 {
		t.Fatalf("cluster run: %d errors (first: %s)", resC.Errors, resC.FirstError)
	}
	if len(resC.Digest) != 64 {
		t.Fatalf("cluster digest %q is not 64 hex chars", resC.Digest)
	}
	// Both instances must have received traffic for the comparison to
	// mean anything.
	snap := resC.Registry.Snapshot()
	for i := range cluster.URLs {
		if snap.Counters[fmt.Sprintf("zipload.route.%d", i)] == 0 {
			t.Fatalf("instance %d received no requests", i)
		}
	}
	// The aggregated server snapshot must account for every request.
	if resC.ServerSnap == nil {
		t.Fatal("no aggregated cluster metrics")
	}
	if got := resC.ServerSnap.Counters["server.requests"]; got != resC.Requests {
		t.Fatalf("cluster-wide server.requests = %d, clients sent %d", got, resC.Requests)
	}

	var sb strings.Builder
	resC.report(&sb, cluster)
	out := sb.String()
	for _, want := range []string{"cluster: 2 instances", "tier:", "response digest:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("cluster report missing %q:\n%s", want, out)
		}
	}

	// Baseline: same stream, one plain-LRU instance.
	sS := server.New(server.Config{Workers: 2})
	tsS := httptest.NewServer(sS)
	defer tsS.Close()
	single := base
	single.BaseURL = tsS.URL
	resS, err := runLoad(single)
	if err != nil {
		t.Fatal(err)
	}
	if resS.Errors != 0 {
		t.Fatalf("baseline run: %d errors (first: %s)", resS.Errors, resS.FirstError)
	}
	if resS.Digest != resC.Digest {
		t.Fatalf("cluster digest %s != single-instance digest %s — the topology changed response bytes",
			resC.Digest, resS.Digest)
	}
}

// TestRunLoadRejectsBadZipf: the skew parameter is validated up front
// (rand.NewZipf silently misbehaves at s <= 1).
func TestRunLoadRejectsBadZipf(t *testing.T) {
	_, err := runLoad(loadConfig{BaseURL: "http://127.0.0.1:1", Codecs: []string{"lz77"}, ZipfS: 0.5})
	if err == nil || !strings.Contains(err.Error(), "zipf") {
		t.Fatalf("want zipf validation error, got %v", err)
	}
}
