package server

// Tests for the work gate (DESIGN.md §13). Under sustained traffic at
// several times gate capacity the server must shed with 503 +
// Retry-After instead of queuing unboundedly, every admitted request must
// still answer correctly with bounded latency, and at idle defaults
// nothing may be shed. Below the server, the gate bounds
// concurrent work, releases its slot on every path, and measures waits.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/pagestore"
	"github.com/zipchannel/zipchannel/internal/par"
)

// TestAdmissionShedsOverload drives 8× gate capacity of concurrent
// traffic at a 2-worker server with a 2-deep admission queue, once as
// codec compresses and once as page PUTs, which share the gate. The
// contract: excess traffic is refused fast with 503 + a positive integer
// Retry-After, admitted requests all succeed with bounded latency (no
// slow-504 path), and the shed/admitted counters and healthz overload
// section account for every request.
func TestAdmissionShedsOverload(t *testing.T) {
	for _, tc := range []struct {
		name string
		// faults holds every execution for 20ms so the pool saturates.
		faults string
		pages  bool
		// request builds request i; distinct bodies and page ids mean no
		// cache hits and no singleflight coalescing.
		request func(url string, i int) *http.Request
	}{
		{
			name:   "codec",
			faults: "server.codec.compress=latency:1:20000",
			request: func(url string, i int) *http.Request {
				body := strings.Repeat(fmt.Sprintf("overload body %d. ", i), 40)
				req, _ := http.NewRequest("POST", url+"/v1/lz77/compress", strings.NewReader(body))
				return req
			},
		},
		{
			name:   "pages",
			faults: "server.gate.acquire=latency:1:20000",
			pages:  true,
			request: func(url string, i int) *http.Request {
				body := strings.Repeat(fmt.Sprintf("page %d ", i), 20)
				req, _ := http.NewRequest("PUT", fmt.Sprintf("%s/v1/pages/p%d", url, i), strings.NewReader(body))
				return req
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			faults := fault.NewRegistry(1)
			if err := faults.ArmAll(tc.faults); err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Workers:    2,
				QueueLimit: 2,
				CacheBytes: -1, // no cache: every request must execute
				Registry:   reg,
				Faults:     faults,
			}
			if tc.pages {
				cfg.PageStore = pagestore.New(pagestore.Config{PageSize: 512})
			}
			_, ts := newTestServer(t, cfg)
			checkSheds(t, ts.URL, reg, tc.request)
		})
	}
}

// checkSheds sends 16 concurrent requests (8× a 2-worker gate with a
// 2-deep queue) and checks the shedding contract and its accounting.
func checkSheds(t *testing.T, url string, reg *obs.Registry, request func(string, int) *http.Request) {
	t.Helper()
	const concurrent = 16
	type result struct {
		status     int
		retryAfter string
		elapsed    time.Duration
		ok         bool
	}
	results := make([]result, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			resp, err := http.DefaultClient.Do(request(url, i))
			if err != nil {
				return
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			results[i] = result{
				status:     resp.StatusCode,
				retryAfter: resp.Header.Get("Retry-After"),
				elapsed:    time.Since(start),
				ok:         resp.StatusCode == http.StatusOK && len(out) > 0,
			}
		}(i)
	}
	wg.Wait()

	var admitted, shed int
	var maxAdmitted time.Duration
	for i, r := range results {
		switch r.status {
		case http.StatusOK:
			admitted++
			if !r.ok {
				t.Errorf("request %d: 200 with empty body", i)
			}
			if r.elapsed > maxAdmitted {
				maxAdmitted = r.elapsed
			}
		case http.StatusServiceUnavailable:
			shed++
			secs, err := strconv.Atoi(r.retryAfter)
			if err != nil || secs < 1 {
				t.Errorf("request %d: shed without usable Retry-After (%q)", i, r.retryAfter)
			}
		default:
			t.Errorf("request %d: unexpected status %d", i, r.status)
		}
	}
	// With at most capacity+queue = 4 requests in the system, a 16-wide
	// burst must shed most of itself; exact counts depend on goroutine
	// arrival order, so assert the floor.
	if shed < concurrent/2 {
		t.Fatalf("shed %d of %d, want at least %d", shed, concurrent, concurrent/2)
	}
	if admitted == 0 {
		t.Fatal("no request admitted under overload")
	}
	// Admitted-latency bound: 4 in-system slots × 20ms each leaves the
	// worst queue wait around 2 execution rounds; 5s is an order of
	// magnitude of slack for CI scheduling.
	if maxAdmitted > 5*time.Second {
		t.Fatalf("admitted p100 latency %v: queue not bounded", maxAdmitted)
	}

	if got := reg.Counter("server.admission.shed").Value(); got != uint64(shed) {
		t.Fatalf("shed counter %d, want %d", got, shed)
	}
	if got := reg.Counter("server.admission.admitted").Value(); got != uint64(admitted) {
		t.Fatalf("admitted counter %d, want %d", got, admitted)
	}

	// healthz must expose the overload section with matching accounting.
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Overload *struct {
			State    string `json:"state"`
			Limit    int    `json:"queue_limit"`
			Capacity int    `json:"capacity"`
			Admitted uint64 `json:"admitted_total"`
			Shed     uint64 `json:"shed_total"`
		} `json:"overload"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Overload == nil {
		t.Fatal("healthz: overload section missing")
	}
	if health.Overload.Capacity != 2 || health.Overload.Limit != 2 {
		t.Fatalf("healthz overload: capacity=%d limit=%d, want 2/2",
			health.Overload.Capacity, health.Overload.Limit)
	}
	if health.Overload.Shed != uint64(shed) || health.Overload.Admitted != uint64(admitted) {
		t.Fatalf("healthz overload: admitted=%d shed=%d, want %d/%d",
			health.Overload.Admitted, health.Overload.Shed, admitted, shed)
	}
}

// TestAdmissionDefaultQuiet: at defaults (8× capacity queue) a serial
// workload never sheds and the overload section reports "ok".
func TestAdmissionDefaultQuiet(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{Registry: reg})
	for i := 0; i < 5; i++ {
		resp, _ := post(t, ts.URL+"/v1/lz77/compress",
			[]byte(fmt.Sprintf("quiet body %d", i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("serial request %d: status %d", i, resp.StatusCode)
		}
	}
	if got := reg.Counter("server.admission.shed").Value(); got != 0 {
		t.Fatalf("serial workload shed %d requests", got)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health struct {
		Overload *healthOverload `json:"overload"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Overload == nil || health.Overload.State != "ok" {
		t.Fatalf("healthz overload = %+v, want state ok", health.Overload)
	}
}

// TestAdmissionEWMA exercises the execution-time estimator directly:
// first observation seeds the mean, later ones move it by 1/8 per step,
// and the queue-wait estimate scales with queue depth over capacity.
func TestAdmissionEWMA(t *testing.T) {
	a := newGate(2, 4, obs.NewRegistry(), nil, nil)
	if est := a.estimatedWait(3); est != 0 {
		t.Fatalf("estimate before any observation = %v, want 0", est)
	}
	a.observeExec(8 * time.Millisecond)
	if got := a.execUS.Load(); got != 8000 {
		t.Fatalf("first observation mean = %dµs, want 8000", got)
	}
	a.observeExec(16 * time.Millisecond)
	if got := a.execUS.Load(); got != 8000-1000+2000 {
		t.Fatalf("EWMA after 16ms = %dµs, want 9000", got)
	}
	// Queue depth 4 at capacity 2 → 3 execution rounds' wait.
	want := time.Duration(3*9000) * time.Microsecond
	if got := a.estimatedWait(4); got != want {
		t.Fatalf("estimatedWait(4) = %v, want %v", got, want)
	}
	if secs := a.retryAfterSeconds(); secs != 1 {
		t.Fatalf("retryAfterSeconds idle = %d, want floor 1", secs)
	}
}

// TestGateBoundsConcurrency launches far more callers than the gate has
// slots and checks the observed high-water mark never exceeds capacity.
func TestGateBoundsConcurrency(t *testing.T) {
	const capacity, callers = 4, 64
	g := newGate(capacity, 0, obs.NewRegistry(), nil, nil)
	var inside, high atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := g.do(context.Background(), "test.run", func(*obs.TraceSpan) error {
				n := inside.Add(1)
				for {
					old := high.Load()
					if n <= old || high.CompareAndSwap(old, n) {
						break
					}
				}
				time.Sleep(time.Millisecond) // let overlaps actually happen
				inside.Add(-1)
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if h := high.Load(); h > capacity {
		t.Fatalf("observed %d concurrent callers, gate capacity %d", h, capacity)
	}
}

// TestGateDefaultCapacity: workers <= 0 means GOMAXPROCS slots, and
// queue limit 0 means DefaultQueueLimitFactor of them.
func TestGateDefaultCapacity(t *testing.T) {
	g := newGate(0, 0, obs.NewRegistry(), nil, nil)
	if got, want := cap(g.slots), par.Parallelism(0); got != want {
		t.Fatalf("capacity = %d, want %d", got, want)
	}
	if got, want := g.limit, DefaultQueueLimitFactor*cap(g.slots); got != want {
		t.Fatalf("queue limit = %d, want %d", got, want)
	}
}

// TestGatePanicReleasesSlot: a panicking execution is contained as a
// transient error and a server.errors.codec_panic count, and does not
// leak its slot.
func TestGatePanicReleasesSlot(t *testing.T) {
	reg := obs.NewRegistry()
	g := newGate(1, 0, reg, nil, nil)
	for i := 0; i < 3; i++ {
		err := g.do(context.Background(), "test.run", func(*obs.TraceSpan) error { panic("worker crash") })
		if !errors.Is(err, errTransient) {
			t.Fatalf("panicking execution: err = %v, want errTransient", err)
		}
	}
	if got := reg.Counter("server.errors.codec_panic").Value(); got != 3 {
		t.Fatalf("codec_panic = %d, want 3", got)
	}
	ran := false
	if err := g.do(context.Background(), "test.run", func(*obs.TraceSpan) error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("after panics: err=%v ran=%v (slot leaked?)", err, ran)
	}
}

// TestGateDeadlineWhileQueued: a caller whose context expires while it
// waits for a slot gets the context's error without running, and the
// gate admits normally once the slot frees.
func TestGateDeadlineWhileQueued(t *testing.T) {
	g := newGate(1, 0, obs.NewRegistry(), nil, nil)
	hold := make(chan struct{})
	started := make(chan struct{})
	go g.do(context.Background(), "test.run", func(*obs.TraceSpan) error {
		close(started)
		<-hold
		return nil
	})
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := g.do(ctx, "test.run", func(*obs.TraceSpan) error {
		t.Fatal("ran despite an expired deadline")
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued past its deadline: err = %v, want DeadlineExceeded", err)
	}
	close(hold)
	ran := false
	if err := g.do(context.Background(), "test.run", func(*obs.TraceSpan) error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("after release: err=%v ran=%v", err, ran)
	}
}

// TestGateRequestDeadline: the requestTimeout deadline starts when a
// request enters the gate and ends when it leaves.
func TestGateRequestDeadline(t *testing.T) {
	g := newGate(1, 0, obs.NewRegistry(), nil, nil)
	ctx, cancel, err := g.enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	deadline, ok := ctx.Deadline()
	if !ok || time.Until(deadline) <= requestTimeout-time.Second {
		t.Fatalf("entered ctx deadline = %v (set %v), want ~%v from now", deadline, ok, requestTimeout)
	}
	g.leave(cancel)
	if ctx.Err() == nil {
		t.Fatal("leave did not cancel the request deadline")
	}
}

// TestGateFaultReleasesSlot: the server.gate.acquire point is hit once
// per slot acquisition; an injected error fails that attempt as
// transient without running it, an injected panic propagates, and
// neither leaks the slot of a 1-slot gate.
func TestGateFaultReleasesSlot(t *testing.T) {
	for _, kind := range []string{"error", "panic"} {
		t.Run(kind, func(t *testing.T) {
			faults := fault.NewRegistry(1)
			if err := faults.ArmAll("server.gate.acquire=" + kind + "@2"); err != nil {
				t.Fatal(err)
			}
			g := newGate(1, 0, obs.NewRegistry(), faults, nil)
			runs := 0
			attempt := func() (err error) {
				defer func() {
					if v := recover(); v != nil {
						err = fmt.Errorf("panicked: %v", v)
					}
				}()
				return g.do(context.Background(), "test.run", func(*obs.TraceSpan) error { runs++; return nil })
			}
			for hit := 1; hit <= 3; hit++ {
				err := attempt()
				switch {
				case hit != 2 && err != nil:
					t.Fatalf("hit %d: err = %v (slot leaked by the injection?)", hit, err)
				case hit == 2 && kind == "error" && !errors.Is(err, errTransient):
					t.Fatalf("hit 2: err = %v, want errTransient", err)
				case hit == 2 && kind == "panic" && (err == nil || !strings.HasPrefix(err.Error(), "panicked")):
					t.Fatalf("hit 2: err = %v, want the injected panic", err)
				}
			}
			if runs != 2 {
				t.Fatalf("ran %d times, want 2 (the faulted attempt must not run)", runs)
			}
			if hits, fired := faults.Point("server.gate.acquire").Stats(); hits != 3 || fired != 1 {
				t.Fatalf("gate fault point: %d hits, %d fired, want 3/1", hits, fired)
			}
		})
	}
}

// TestGateWaitMeasured: an uncontended slot adds no wait to the
// request; one queued behind a held slot adds roughly the time it
// blocked.
func TestGateWaitMeasured(t *testing.T) {
	g := newGate(1, 0, obs.NewRegistry(), nil, nil)
	ri := &reqInfo{}
	ctx := context.WithValue(context.Background(), reqInfoKey{}, ri)
	noop := func(*obs.TraceSpan) error { return nil }
	if err := g.do(ctx, "test.run", noop); err != nil || ri.gateWait != 0 {
		t.Fatalf("uncontended: wait=%v err=%v, want 0/nil", ri.gateWait, err)
	}

	hold := make(chan struct{})
	started := make(chan struct{})
	go g.do(context.Background(), "test.run", func(*obs.TraceSpan) error {
		close(started)
		<-hold
		return nil
	})
	<-started
	time.AfterFunc(30*time.Millisecond, func() { close(hold) })
	if err := g.do(ctx, "test.run", noop); err != nil {
		t.Fatal(err)
	}
	if ri.gateWait < 10*time.Millisecond {
		t.Fatalf("queued caller recorded wait %v, want >= 10ms of real blocking", ri.gateWait)
	}
}
