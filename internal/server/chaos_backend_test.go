package server

// Backend chaos scenarios (picked up by `make test-chaos` via the
// TestChaos name prefix): a failing disk, a hanging peer, and a
// corrupted cold tier. The contract under every one of them is the
// same — the hierarchy degrades (skipped store, miss, slower path),
// it never serves corrupt bytes and never takes the request down.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
)

// TestChaosDiskWriteErrorDegradesToUncached: every disk write fails;
// puts are absorbed (counted, skipped), reads miss, and a tiered
// hierarchy above the failing disk keeps serving from its hot tier.
func TestChaosDiskWriteErrorDegradesToUncached(t *testing.T) {
	faults := fault.NewRegistry(3)
	if err := faults.ArmAll(FaultDiskWrite + "=error:1"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	disk, err := NewDiskBackend(t.TempDir(), 1<<20, reg, "server.cache.cold", faults)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	key := cacheKey("compress", "lz77", "", []byte("doomed store"))
	disk.Put(key, []byte("value"))
	if _, ok := disk.Get(key); ok {
		t.Fatal("a failed write must not produce a readable entry")
	}
	if entries, bytes := disk.Stats(); entries != 0 || bytes != 0 {
		t.Fatalf("failed writes leaked accounting: %d entries, %d bytes", entries, bytes)
	}
	if got := reg.Snapshot().Counters["server.cache.cold.write_errors"]; got == 0 {
		t.Fatal("write errors not counted")
	}

	// The hierarchy above the failing disk: hot tier still serves.
	hot := NewLRUBackend(1<<20, reg, "server.cache.hot")
	tiered := NewTiered(hot, disk, reg, "server.cache")
	val := []byte("still served from the hot tier")
	tiered.Put(key, val)
	got, ok := tiered.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatal("tiered backend stopped serving because its cold tier cannot write")
	}
}

// TestChaosPeerTimeoutIsAMiss: a peer that answers slower than the
// client's deadline degrades to a miss within ~the timeout — a cold
// tier slower than recomputing must never stall the request path.
func TestChaosPeerTimeoutIsAMiss(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	defer slow.Close()

	reg := obs.NewRegistry()
	peer := NewPeerBackend(slow.URL, 30*time.Millisecond, reg, "server.cache.peer", nil)
	defer peer.Close()

	key := cacheKey("compress", "lzw", "", []byte("slow peer"))
	start := time.Now()
	_, ok := peer.Get(key)
	elapsed := time.Since(start)
	if ok {
		t.Fatal("timed-out peer read reported a hit")
	}
	if elapsed > 200*time.Millisecond {
		t.Fatalf("peer miss took %v — the timeout did not bound the exchange", elapsed)
	}
	snap := reg.Snapshot()
	if snap.Counters["server.cache.peer.errors"] == 0 || snap.Counters["server.cache.peer.misses"] == 0 {
		t.Fatalf("peer timeout not accounted: %v", snap.Counters)
	}

	// The injected flavor: a latency fault plus short timeout, same
	// degradation without a slow server in the loop.
	faults := fault.NewRegistry(5)
	if err := faults.ArmAll(FaultPeerGet + "=error:1"); err != nil {
		t.Fatal(err)
	}
	peerDown := NewPeerBackend("http://127.0.0.1:1", 30*time.Millisecond, reg, "server.cache.peer", faults)
	defer peerDown.Close()
	if _, ok := peerDown.Get(key); ok {
		t.Fatal("injected peer failure reported a hit")
	}
}

// TestChaosCorruptColdTierEntry: a bit-flip lands on the only remaining
// copy (the cold tier); the read detects it, degrades to a miss, and the
// caller's re-put heals the entry. At no point do corrupt bytes surface.
func TestChaosCorruptColdTierEntry(t *testing.T) {
	reg := obs.NewRegistry()
	hot := NewLRUBackend(1<<10, reg, "server.cache.hot") // 1 KB: easy to flush
	cold, err := NewDiskBackend(t.TempDir(), 1<<20, reg, "server.cache.cold", nil)
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(hot, cold, reg, "server.cache")
	defer tiered.Close()

	key := cacheKey("compress", "bwt", "", []byte("victim entry"))
	val := bytes.Repeat([]byte("payload "), 64) // 512 B
	tiered.Put(key, val)

	// Flush the hot tier so the cold copy is the only one left.
	for i := 0; i < 8; i++ {
		tiered.Put(cacheKey("compress", "bwt", "", []byte{byte(i)}), bytes.Repeat([]byte{byte(i)}, 256))
	}
	if _, ok := hot.Get(key); ok {
		t.Fatal("test setup: victim still in the hot tier")
	}

	tiered.CorruptStored(key, fault.Injection{Point: "chaos", Kind: fault.KindCorrupt, Rand: 424242})
	if got, ok := tiered.Get(key); ok {
		t.Fatalf("corrupt cold entry served (%d bytes)", len(got))
	}
	if got := reg.Snapshot().Counters["server.cache.cold.corruptions_detected"]; got != 1 {
		t.Fatalf("cold-tier corruption not detected/counted: %d", got)
	}

	// Heal: the caller recomputes and re-puts; subsequent reads serve
	// the correct bytes again.
	tiered.Put(key, val)
	got, ok := tiered.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatal("re-put did not heal the corrupted entry")
	}
}

// TestChaosTieredServerEndToEnd: a live server running the full
// hot/disk hierarchy with disk faults armed at high rates keeps
// answering /v1 with byte-correct responses — storage chaos shows up
// only in counters, never in response bodies.
func TestChaosTieredServerEndToEnd(t *testing.T) {
	faults := fault.NewRegistry(11)
	if err := faults.ArmAll(FaultDiskWrite + "=error:0.3," + FaultDiskRead + "=error:0.3"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	hot := NewLRUBackend(1<<12, reg, "server.cache.hot")
	cold, err := NewDiskBackend(t.TempDir(), 1<<20, reg, "server.cache.cold", faults)
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(hot, cold, reg, "server.cache")
	s := New(Config{Registry: reg, Cache: tiered, Faults: faults, Workers: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Three passes over 24 distinct bodies: pass 1 populates both tiers,
	// and with ~500 B responses against a 4 KB hot tier, passes 2 and 3
	// mostly read through to the faulty disk. Every response must equal
	// its pass-1 twin regardless of which tier (or fault) it crossed.
	post := func(i int) []byte {
		body := bytes.Repeat([]byte{byte('a' + i%24)}, 400+16*(i%24))
		resp, err := ts.Client().Post(ts.URL+"/v1/lz77/compress", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		return out.Bytes()
	}
	want := make([][]byte, 24)
	for i := 0; i < 24; i++ {
		want[i] = post(i)
	}
	for i := 24; i < 72; i++ {
		if out := post(i); !bytes.Equal(out, want[i%24]) {
			t.Fatalf("request %d returned different bytes under storage chaos", i)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["server.cache.cold.write_errors"]+snap.Counters["server.cache.cold.read_errors"] == 0 {
		t.Fatal("chaos profile never fired — the test proved nothing")
	}
}

// TestChaosCorruptLandsOnLocalTiers: on a peered chain the cold tier is
// the read-only peer, so a server.cache.get bit-flip must land on the
// local tiers instead. The damage is detected and the request recomputes
// the same bytes.
func TestChaosCorruptLandsOnLocalTiers(t *testing.T) {
	_, a := newTestServer(t, Config{})
	faults := fault.NewRegistry(1)
	if err := faults.ArmAll("server.cache.get=corrupt@2"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	local := NewLRUBackend(1<<20, reg, "server.cache.local")
	_, ts := newTestServer(t, Config{Registry: reg, Faults: faults,
		Cache: NewTiered(local, NewPeerBackend(a.URL, 0, reg, "server.cache.peer", nil), reg, "server.cache")})

	body := bytes.Repeat([]byte("peered chaos "), 40)
	_, want := post(t, ts.URL+"/v1/lz77/compress", body)
	resp, got := post(t, ts.URL+"/v1/lz77/compress", body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("after the bit-flip: status %d, %d bytes; want 200 and the first response's %d bytes", resp.StatusCode, len(got), len(want))
	}
	if got := reg.Snapshot().Counters["server.cache.local.corruptions_detected"]; got != 1 {
		t.Fatalf("server.cache.local.corruptions_detected = %d, want 1: the bit-flip missed the local tier", got)
	}
}
