package server

// Backend chaos scenarios (picked up by `make test-chaos` via the
// TestChaos name prefix): a failing disk and a corrupted cold tier. The
// contract under both is the same — the hierarchy degrades (skipped
// store, miss, slower path), it never serves corrupt bytes and never
// takes the request down.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

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

// TestChaosCorruptLandsOnLocalTiers: a server.cache.get bit-flip on a
// hot LRU over a disk cold tier lands on the cold tier. The hot copy
// still serves the same bytes; once the hot copy is evicted, the cold
// read detects the damage and the request recomputes the same bytes,
// which heal the entry.
func TestChaosCorruptLandsOnLocalTiers(t *testing.T) {
	faults := fault.NewRegistry(1)
	if err := faults.ArmAll("server.cache.get=corrupt@2"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	hot := NewLRUBackend(1<<10, reg, "server.cache.hot") // 1 KB: easy to flush
	cold, err := NewDiskBackend(t.TempDir(), 1<<20, reg, "server.cache.cold", nil)
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(hot, cold, reg, "server.cache")
	t.Cleanup(func() { tiered.Close() })
	_, ts := newTestServer(t, Config{Registry: reg, Faults: faults, Cache: tiered})

	body := bytes.Repeat([]byte("local chaos "), 40)
	key := cacheKey("compress", "lz77", "", body)
	_, want := post(t, ts.URL+"/v1/lz77/compress", body)

	// The second lookup fires the fault: the cold copy is damaged and the
	// hot copy answers.
	resp, got := post(t, ts.URL+"/v1/lz77/compress", body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "HIT" || !bytes.Equal(got, want) {
		t.Fatalf("after the bit-flip: status %d, X-Cache %q, %d bytes; want a 200 HIT with the first response's %d bytes",
			resp.StatusCode, resp.Header.Get("X-Cache"), len(got), len(want))
	}

	// Flush the hot tier so the damaged cold copy is the only one left.
	for i := 0; i < 8; i++ {
		hot.Put(cacheKey("compress", "lz77", "", []byte{byte(i)}), bytes.Repeat([]byte{byte(i)}, 256))
	}
	if _, ok := hot.Get(key); ok {
		t.Fatal("test setup: the entry is still in the hot tier")
	}
	resp, got = post(t, ts.URL+"/v1/lz77/compress", body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "MISS" || !bytes.Equal(got, want) {
		t.Fatalf("over the damaged cold copy: status %d, X-Cache %q, %d bytes; want a 200 MISS with the first response's %d bytes",
			resp.StatusCode, resp.Header.Get("X-Cache"), len(got), len(want))
	}
	if got := reg.Snapshot().Counters["server.cache.cold.corruptions_detected"]; got != 1 {
		t.Fatalf("server.cache.cold.corruptions_detected = %d, want 1: the bit-flip missed the cold tier", got)
	}
	if got, ok := cold.Get(key); !ok || !bytes.Equal(got, want) {
		t.Fatalf("cold tier after the recompute: present %t, %d bytes; want the healed %d bytes", ok, len(got), len(want))
	}
}
