package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/zipchannel/zipchannel/internal/compress/codec"
	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/par"
)

// chaosFaults arms the server's full injection-point inventory at roughly
// a 10% aggregate fault rate (the make test-chaos profile).
func chaosFaults(t *testing.T, seed int64) *fault.Registry {
	t.Helper()
	reg := fault.NewRegistry(seed)
	err := reg.ArmAll(strings.Join([]string{
		"server.codec.compress=error:0.04",
		"server.codec.compress=panic:0.02",
		"server.codec.compress=corrupt:0.02",
		"server.codec.decompress=error:0.04",
		"server.codec.decompress=panic:0.02",
		"server.cache.get=corrupt:0.04",
		"server.cache.get=error:0.02",
		"server.cache.put=error:0.02",
		"server.gate.acquire=latency:0.05:500",
		"server.gate.acquire=error:0.02",
	}, ","))
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// TestChaosConcurrentFaultedLoad is the server's chaos contract, run under
// -race by `make race` and `make test-chaos`: ~10% injected faults across
// codec workers, the cache, and pool admission, with a deliberately tiny
// cache so eviction churns concurrently with hits, misses, corruption
// detection, and degraded bypasses. Every client round-trips every body
// with bounded retries; the test fails on any wrong byte (corruption must
// never escape), any unrecovered request, or inconsistent cache counters.
func TestChaosConcurrentFaultedLoad(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{
		Workers:    4,
		CacheBytes: 16 << 10, // tiny: forces evictions under load
		Registry:   reg,
		Faults:     chaosFaults(t, 7),
	})
	// No server-side retries (white box): every injected failure
	// surfaces as a 5xx, so this test proves the *client* retry loop
	// carries the recovery (the server-retry path is covered by
	// cmd/zipload's chaos test, which runs the shipped policy).
	s.retries = 0
	ts := httptest.NewServer(s)
	defer ts.Close()

	// A body pool small enough to produce cache hits but larger than the
	// budget in aggregate, so eviction and re-fill both happen.
	rng := rand.New(rand.NewSource(11))
	bodies := make([][]byte, 12)
	for i := range bodies {
		b := make([]byte, 1500+rng.Intn(1500))
		for j := range b {
			b[j] = byte('a' + rng.Intn(6))
		}
		bodies[i] = b
	}
	names := codec.Names()

	const clients = 16
	const requestsPerClient = 25
	results := make([]chaosSlot, clients)
	err := par.ForEach(clients, clients, func(ci int) error {
		crng := rand.New(rand.NewSource(par.SplitSeed(3, fmt.Sprintf("chaos-client-%d", ci))))
		cl := ts.Client()
		for n := 0; n < requestsPerClient; n++ {
			name := names[crng.Intn(len(names))]
			body := bodies[crng.Intn(len(bodies))]
			comp, ok := postRetry(cl, ts.URL+"/v1/"+name+"/compress", body, &results[ci])
			if !ok {
				results[ci].failures++
				continue
			}
			back, ok := postRetry(cl, ts.URL+"/v1/"+name+"/decompress", comp, &results[ci])
			if !ok {
				results[ci].failures++
				continue
			}
			if !bytes.Equal(back, body) {
				return fmt.Errorf("client %d: round-trip corruption through %s (%d bytes in, %d back)",
					ci, name, len(body), len(back))
			}
			results[ci].roundTrips++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err) // corruption is an immediate failure, retries or not
	}

	var trips, retries, failures int
	for _, r := range results {
		trips += r.roundTrips
		retries += r.retries
		failures += r.failures
	}
	total := clients * requestsPerClient
	t.Logf("chaos load: %d/%d round trips ok, %d client retries, %d unrecovered", trips, total, retries, failures)
	// Bounded error rate: with bounded client retries over ~10% injected
	// faults, the vast majority of requests must still land.
	if failures > total/20 {
		t.Errorf("%d of %d requests unrecovered (want <= 5%%)", failures, total)
	}
	if retries == 0 {
		t.Error("no client retries happened — faults were not actually exercised")
	}

	snap := reg.Snapshot()
	hits := snap.Counters["server.cache.hits"]
	misses := snap.Counters["server.cache.misses"]
	evictions := snap.Counters["server.cache.evictions"]
	if hits == 0 || misses == 0 {
		t.Errorf("cache counters flat: hits=%d misses=%d (want both > 0)", hits, misses)
	}
	if evictions == 0 {
		t.Error("no evictions despite a 16 KiB budget under multi-MB traffic")
	}
	if got := snap.Counters["server.cache.corruptions_detected"]; got == 0 {
		t.Error("no corruption detections despite server.cache.get=corrupt being armed")
	}
	if got := snap.Counters["server.errors.codec_panic"]; got == 0 {
		t.Error("no contained codec panics despite panic faults armed")
	}
	if snap.Counters["server.errors.panic"] != 0 {
		t.Error("a panic escaped to the outer middleware; codec panics must be contained at the worker")
	}
	// The gauges track the accounting exactly (entries and bytes within
	// budget even after corruption-evictions).
	if b := snap.Gauges["server.cache.bytes"]; b < 0 || b > 16<<10 {
		t.Errorf("cache bytes gauge %v outside [0, budget]", b)
	}
	// The server must still be alive and serving after the storm.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after chaos: %v / %v", err, resp)
	}
	resp.Body.Close()
}

type chaosSlot struct{ roundTrips, retries, failures int }

// postRetry POSTs with up to 6 attempts on 5xx/transport errors, counting
// retries into the client's slot. Returns ok=false when attempts run out.
func postRetry(cl *http.Client, url string, body []byte, sl *chaosSlot) ([]byte, bool) {
	for attempt := 0; attempt < 6; attempt++ {
		if attempt > 0 {
			sl.retries++
			time.Sleep(time.Duration(1<<attempt) * time.Millisecond)
		}
		resp, err := cl.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			continue
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode >= 500 {
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return nil, false // 4xx: not retryable
		}
		return out, true
	}
	return nil, false
}

// TestChaosBreakerServesCachedWhileOpen pins the degraded mode under the
// shipped policy: with the compress worker hard-down (error on every
// attempt, so each request fails all 1+codecRetries of them), cached
// responses keep flowing while uncached requests see 500s until the
// breaker opens, then fast 503s, then a trial 500 after the cooldown.
func TestChaosBreakerServesCachedWhileOpen(t *testing.T) {
	faults := fault.NewRegistry(1)
	if err := faults.ArmAll("server.codec.compress=error@1"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(Config{Workers: 2, Registry: reg, Faults: faults})
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Seed the cache directly (white box): the breaker guards the codec,
	// not the cache, so this entry must stay servable throughout.
	cachedBody := []byte("the body that was compressed before the outage")
	cachedOut := []byte("previously-computed compressed bytes")
	s.cache.Put(cacheKey("compress", "lz77", "", cachedBody), cachedOut)

	postStatus := func(body []byte) (int, []byte, string) {
		resp, err := http.Post(ts.URL+"/v1/lz77/compress", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, out, resp.Header.Get("X-Cache")
	}

	uncached := []byte("a body with no cache entry")
	// breakerThreshold consecutive failed requests open the breaker...
	for i := 0; i < breakerThreshold; i++ {
		if code, _, _ := postStatus(uncached); code != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d, want 500", i+1, code)
		}
	}
	// ...after which uncached requests fast-fail for the cooldown window.
	for i := 0; i < breakerCooldown; i++ {
		if code, _, _ := postStatus(uncached); code != http.StatusServiceUnavailable {
			t.Fatalf("cooldown request %d: status %d, want 503", i+1, code)
		}
		// The cached entry keeps being served from inside the outage.
		code, out, xc := postStatus(cachedBody)
		if code != http.StatusOK || !bytes.Equal(out, cachedOut) || xc != "HIT" {
			t.Fatalf("cached request during open breaker: status %d, X-Cache %q", code, xc)
		}
	}
	// Cooldown over: the trial request reaches the (still broken) codec.
	if code, _, _ := postStatus(uncached); code != http.StatusInternalServerError {
		t.Fatalf("trial request: status %d, want 500", code)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["server.breaker.trips"]; got < 2 {
		t.Errorf("breaker.trips = %d, want >= 2 (initial trip + failed trial)", got)
	}
	if got := snap.Counters["server.breaker.rejected"]; got != breakerCooldown {
		t.Errorf("breaker.rejected = %d, want exactly %d (the cooldown window)", got, breakerCooldown)
	}
	// Every failed request spent all its attempts: the breaker counts
	// requests, not attempts.
	if got, want := snap.Counters["server.codec.executions"], uint64((breakerThreshold+1)*(1+codecRetries)); got != want {
		t.Errorf("codec.executions = %d, want %d (%d failed requests × %d attempts)",
			got, want, breakerThreshold+1, 1+codecRetries)
	}
}

// TestChaosRetryRecoversTransientFault: a codec fault that fires on every
// second execution is absorbed by the shipped retry policy. The request
// whose first attempt fails succeeds on its retry with the right bytes,
// and the success keeps the breaker closed.
func TestChaosRetryRecoversTransientFault(t *testing.T) {
	faults := fault.NewRegistry(1)
	if err := faults.ArmAll("server.codec.compress=error@2"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{CacheBytes: -1, Registry: reg, Faults: faults})
	cd, _ := codec.Lookup("lz77")

	for i, body := range [][]byte{[]byte("first body: clean attempt"), []byte("second body: retried attempt")} {
		resp, out := post(t, ts.URL+"/v1/lz77/compress", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i+1, resp.StatusCode)
		}
		if back, err := cd.Decompress(out); err != nil || !bytes.Equal(back, body) {
			t.Fatalf("request %d: response does not round-trip: %v", i+1, err)
		}
	}
	snap := reg.Snapshot()
	// Hit 1 runs clean; hit 2 fails and hit 3, its retry, succeeds.
	if got := snap.Counters["server.codec.executions"]; got != 3 {
		t.Errorf("codec.executions = %d, want 3", got)
	}
	if got := snap.Counters["server.codec.retries"]; got != 1 {
		t.Errorf("codec.retries = %d, want 1", got)
	}
	if st := s.ops[opKey{"lz77", "compress"}].breaker.current().String(); st != "closed" {
		t.Errorf("lz77/compress breaker %q after a recovered request, want closed", st)
	}
}

// TestChaosDeadlineOnSaturatedPool: with one worker held by a slow
// (latency-faulted) request, a second request whose deadline expires while
// queued gets a clean 504, not an unbounded wait. The deadline is lowered
// white box so the test need not outwait the shipped requestTimeout.
func TestChaosDeadlineOnSaturatedPool(t *testing.T) {
	faults := fault.NewRegistry(2)
	// 300 ms of injected latency on every codec execution.
	if err := faults.ArmAll("server.codec.compress=latency@1:300000"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(Config{
		Workers:    1,
		Registry:   reg,
		Faults:     faults,
		CacheBytes: -1, // no cache: every request must take a slot
	})
	s.gate.timeout = 120 * time.Millisecond
	ts := httptest.NewServer(s)
	defer ts.Close()

	first := make(chan int)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/lz77/compress", "application/octet-stream",
			bytes.NewReader([]byte("slow request holding the only worker")))
		if err != nil {
			first <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	// Queue the second request only once the first holds the only slot.
	for len(s.gate.slots) != 1 {
		select {
		case code := <-first:
			t.Fatalf("slot-holding request ended (status %d) before it held the slot", code)
		default:
			runtime.Gosched()
		}
	}

	resp, err := http.Post(ts.URL+"/v1/lz77/compress", "application/octet-stream",
		bytes.NewReader([]byte("queued request that must time out")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued request: status %d, want 504", resp.StatusCode)
	}
	if code := <-first; code != http.StatusOK {
		t.Fatalf("slot-holding request: status %d, want 200 (latency, not failure)", code)
	}
	if got := reg.Snapshot().Counters["server.errors.deadline"]; got != 1 {
		t.Errorf("server.errors.deadline = %d, want 1", got)
	}
}

// TestDisarmedFaultsAreInvisible: a server built with an empty fault
// registry must not leak any fault/resilience counters into its metrics
// snapshot and must behave byte-identically to a no-faults server.
func TestDisarmedFaultsAreInvisible(t *testing.T) {
	body := []byte(strings.Repeat("determinism check ", 40))
	run := func(cfg Config) (*obs.Snapshot, []byte) {
		reg := obs.NewRegistry()
		cfg.Registry = reg
		ts := httptest.NewServer(New(cfg))
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/v1/bwt/compress", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return reg.Snapshot(), out
	}

	plainSnap, plainOut := run(Config{Workers: 2})
	armedSnap, armedOut := run(Config{Workers: 2, Faults: fault.NewRegistry(99)})

	if !bytes.Equal(plainOut, armedOut) {
		t.Fatal("compressed bytes differ between no-faults and disarmed-faults servers")
	}
	// Self-check runs when a fault registry is present but must not
	// change any counted behavior; latency histograms are wall-clock and
	// excluded from the comparison.
	for _, snap := range []*obs.Snapshot{plainSnap, armedSnap} {
		delete(snap.Histograms, "server.request_latency_us")
	}
	a, err := plainSnap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	b, err := armedSnap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("metric snapshots diverge with a disarmed fault registry:\n--- plain\n%s\n--- disarmed\n%s", a, b)
	}
	// Disarmed fault points stay invisible (AttachObs declares counters
	// only for armed points); breaker counters are different — they are
	// declared for every build so scrapers see them from zero — but a
	// disarmed run must never actually count on them.
	for name, v := range armedSnap.Counters {
		if strings.HasPrefix(name, "fault.") {
			t.Errorf("disarmed run leaked counter %s", name)
		}
		if strings.HasPrefix(name, "server.breaker.") && v != 0 {
			t.Errorf("disarmed run incremented %s = %d, want 0", name, v)
		}
	}
	for _, want := range []string{"server.breaker.rejected", "server.breaker.trips"} {
		if _, ok := armedSnap.Counters[want]; !ok {
			t.Errorf("declared-at-zero counter %s missing from snapshot", want)
		}
	}
}
