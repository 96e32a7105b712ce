//go:build !race

package bench

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"github.com/zipchannel/zipchannel/internal/pagestore"
	"github.com/zipchannel/zipchannel/internal/server"
	"github.com/zipchannel/zipchannel/internal/zipchannel"
)

// ratchet is how far under its ceiling a measurement may fall before the
// budget must be lowered, so budgets follow improvements down instead of
// going slack. It stays far above the run-to-run spread of every
// operation: under 0.03% of the bytes, and 2 allocations in 1,118 for
// the attack.
const ratchet = 0.05

// byteSlack is the headroom of a bytes ceiling over the highest byte
// count seen.
const byteSlack = 0.02

// countSlack is the headroom of a count ceiling over the highest count
// seen. It rounds to less than one allocation below 200 allocations, so
// those ceilings are exact; for the attack it is 5 allocations, above
// the 2 by which its mean of 3 calls moves with GC timing and map layout
// (1,116 to 1,118 over 120 measurements).
const countSlack = 0.005

// recordedWith is the toolchain and platform the budgets were measured
// on. The runtime's maps, its allocator and net/http change allocation
// counts and bytes between Go releases and architectures, so the
// budgets hold only there; go.mod pins the same toolchain.
const recordedWith = "go1.24.0 linux/amd64"

// budget pins one operation's allocations and heap bytes per call.
// allocs and bytes are the highest figures seen over repeated runs of
// this test; the ceilings are countSlack and byteSlack above them. The
// figures were taken with recordedWith; they do not depend on the CPU or
// its speed.
type budget struct {
	name   string
	runs   int // calls averaged per measurement, after one warm-up call
	setup  func(testing.TB) func()
	allocs float64
	bytes  float64
}

// The attack averages 3 calls because its count moves by a few
// allocations from call to call. Its allocations are set-up: the cache
// arrays, the enclave's frames and the run's instruments; its enclave
// exits and cache accesses allocate nothing.
var budgets = []budget{
	{name: "taint/bzip2-2KiB", runs: 10, setup: taintRun, allocs: 16, bytes: 627022},
	{name: "sgx/attack-10KiB", runs: 3, setup: sgxAttack, allocs: 1118, bytes: 3098824},
	{name: "serve/v1-hit", runs: 200, setup: serveHit, allocs: 49, bytes: 10753},
	{name: "serve/v1-miss", runs: 100, setup: serveMiss, allocs: 92, bytes: 173772},
	{name: "serve/page-put-get", runs: 100, setup: pagePutGet, allocs: 128, bytes: 176832},
}

// TestBudget fails when an operation allocates more than its budget, or
// so much less that the budget has gone slack. Allocation counts and
// bytes do not depend on the host's speed, so the budgets hold on any
// machine running the recorded toolchain and platform; wall time is
// compared only between same-host perfbench records.
func TestBudget(t *testing.T) {
	if on := runtime.Version() + " " + runtime.GOOS + "/" + runtime.GOARCH; on != recordedWith {
		t.Fatalf("the budgets were recorded with %s, this is %s: re-record the budgets for %s", recordedWith, on, on)
	}
	for _, b := range budgets {
		t.Run(b.name, func(t *testing.T) {
			op := b.setup(t)
			check(t, "allocs/op", testing.AllocsPerRun(b.runs, op), b.allocs*(1+countSlack), b.allocs)
			check(t, "bytes/op", bytesPerRun(b.runs, op), b.bytes*(1+byteSlack), b.bytes)
		})
	}
}

// check compares got with ceiling; pinned is the table's figure, which
// the failure message tells the reader to replace with got.
func check(t *testing.T, what string, got, ceiling, pinned float64) {
	t.Helper()
	switch {
	case got > ceiling:
		t.Errorf("%s = %.0f, over the ceiling of %.0f", what, got, ceiling)
	case got < ceiling*(1-ratchet):
		t.Errorf("%s = %.0f, more than %.0f%% under the ceiling of %.0f: lower the budget to %.0f (from %.0f)",
			what, got, 100*ratchet, ceiling, got, pinned)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// allocated per call of op over runs calls, at GOMAXPROCS 1, after one
// warm-up call.
func bytesPerRun(runs int, op func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// sgxAttack is one DefaultConfig Attack 1 on a seeded 10 KiB secret.
func sgxAttack(t testing.TB) func() {
	secret := make([]byte, 10240)
	rand.New(rand.NewSource(5)).Read(secret)
	cfg := zipchannel.DefaultConfig()
	cfg.Seed = 5
	return func() {
		if _, err := zipchannel.Attack(secret, cfg); err != nil {
			t.Fatal(err)
		}
	}
}

// servePayload is BenchmarkServeHit's 1 KiB compressible body.
var servePayload = []byte(strings.Repeat("zipserverd bench payload ", 41))[:1024]

func serve(t testing.TB, s *server.Server, method, path string, body []byte) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
	}
}

// serveHit is one in-process /v1 request answered from the cache.
func serveHit(t testing.TB) func() {
	s := server.New(server.Config{})
	serve(t, s, "POST", "/v1/lz77/compress", servePayload)
	return func() { serve(t, s, "POST", "/v1/lz77/compress", servePayload) }
}

// serveMiss is one in-process /v1 request with a body no earlier call
// sent, so it runs the codec and stores the reply. The bodies cover the
// 2×(runs+1) calls of both measurements.
func serveMiss(t testing.TB) func() {
	s := server.New(server.Config{})
	bodies := make([][]byte, 256)
	for i := range bodies {
		bodies[i] = append([]byte(nil), servePayload...)
		binary.LittleEndian.PutUint64(bodies[i], uint64(i))
	}
	n := 0
	return func() {
		serve(t, s, "POST", "/v1/lz77/compress", bodies[n])
		n++
	}
}

// pagePutGet stores a 512-byte page and reads it back over /v1/pages.
func pagePutGet(t testing.TB) func() {
	s := server.New(server.Config{PageStore: pagestore.New(pagestore.Config{PageSize: 512})})
	page := bytes.Repeat([]byte("page over http "), 35)[:512]
	return func() {
		serve(t, s, "PUT", "/v1/pages/p", page)
		serve(t, s, "GET", "/v1/pages/p", nil)
	}
}
