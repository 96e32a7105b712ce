package main

// Degraded-mode tests: ring owner enumeration, the per-client health
// view, hedged racing, failover around an instance that dies mid-run, and
// Retry-After honoring on shed responses.

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/server"
)

// TestRingOwners: owners agrees with pick on the primary, lists every
// instance exactly once, and is deterministic.
func TestRingOwners(t *testing.T) {
	urls := []string{"http://a:1", "http://b:2", "http://c:3", "http://d:4"}
	rt := newRing(urls)
	for i := 0; i < 50; i++ {
		body := []byte(fmt.Sprintf("owner body %d", i))
		owners := rt.owners("lz77", body)
		if len(owners) != len(urls) {
			t.Fatalf("owners listed %d of %d instances", len(owners), len(urls))
		}
		if owners[0] != rt.pick("lz77", body) {
			t.Fatalf("owners[0]=%d disagrees with pick=%d", owners[0], rt.pick("lz77", body))
		}
		seen := map[int]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("instance %d listed twice", o)
			}
			seen[o] = true
		}
		again := rt.owners("lz77", body)
		for j := range owners {
			if owners[j] != again[j] {
				t.Fatal("owners not deterministic")
			}
		}
	}
	// Degenerate single-instance ring.
	if got := newRing([]string{"http://only"}).owners("lz77", []byte("x")); len(got) != 1 || got[0] != 0 {
		t.Fatalf("single-instance owners = %v", got)
	}
}

// TestHealthViewProbation: threshold failures mark an instance down for
// healthDownPicks consults, a probe failure re-downs immediately, and a
// success clears everything.
func TestHealthViewProbation(t *testing.T) {
	hv := newHealthView(2)
	for i := 0; i < healthFailThreshold; i++ {
		if !hv.up(0) {
			t.Fatalf("instance down after only %d failures", i)
		}
		hv.failure(0)
	}
	for i := 0; i < healthDownPicks; i++ {
		if hv.up(0) {
			t.Fatalf("instance up during probation (consult %d)", i)
		}
		if !hv.up(1) {
			t.Fatal("healthy instance affected by another instance's probation")
		}
	}
	if !hv.up(0) {
		t.Fatal("probe not offered after the probation window")
	}
	hv.failure(0) // failed probe: re-down on the first failure
	if hv.up(0) {
		t.Fatal("failed probe did not re-down the instance")
	}
	for i := 1; i < healthDownPicks; i++ {
		hv.up(0)
	}
	if !hv.up(0) {
		t.Fatal("second probe not offered")
	}
	hv.success(0)
	if !hv.up(0) || hv.fails[0] != 0 {
		t.Fatal("success did not clear probation state")
	}
}

// TestHedgedRaceWinner: a slow primary loses the race to the hedge; the
// canceled primary is never reported as a failed loser.
func TestHedgedRaceWinner(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		w.Write([]byte("slow"))
	}))
	defer slow.Close()
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("fast"))
	}))
	defer fast.Close()

	httpc := &http.Client{}
	win, hedged, loser := hedgedRace(httpc, 20*time.Millisecond,
		[]string{slow.URL, fast.URL}, "lz77", "compress", []byte("body"), 0, 1)
	if !hedged {
		t.Fatal("hedge never fired against a 300ms primary")
	}
	if win.err != nil || win.idx != 1 || string(win.out) != "fast" {
		t.Fatalf("winner = idx %d err %v out %q, want the hedge", win.idx, win.err, win.out)
	}
	if loser != nil {
		t.Fatalf("canceled primary reported as failed loser: %+v", loser)
	}
}

// TestHedgedRaceFastFailure: a primary that refuses connections triggers
// the hedge immediately (before the timer) and is counted as the loser.
func TestHedgedRaceFastFailure(t *testing.T) {
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("alive"))
	}))
	defer fast.Close()

	httpc := &http.Client{}
	win, hedged, loser := hedgedRace(httpc, 10*time.Second, // timer would never fire
		[]string{"http://127.0.0.1:1", fast.URL}, "lz77", "compress", []byte("body"), 0, 1)
	if !hedged {
		t.Fatal("fast transport failure did not trigger the hedge")
	}
	if win.err != nil || win.idx != 1 {
		t.Fatalf("winner = idx %d err %v, want the hedge", win.idx, win.err)
	}
	if loser == nil || loser.idx != 0 || loser.err == nil {
		t.Fatalf("dead primary not reported as failed loser: %+v", loser)
	}
}

// TestRunLoadFailsOverAroundMidRunDeath: two-instance cluster, one dies
// mid-run. The load must finish with zero errors (failover + retries
// carry it), count failovers, and classify the dead instance as
// unreachable for the exit-code path.
func TestRunLoadFailsOverAroundMidRunDeath(t *testing.T) {
	// The instance that served more of the load's first killAt /v1
	// requests (of ~320) dies then — request-driven, so the load is
	// demonstrably underway (and the pre-run health check long past) when
	// it goes, however slow the build (-race) is. The ring places the 21
	// pool bodies by the instances' ephemeral ports, and one instance can
	// own only a few of them: it may serve under 20 requests in the whole
	// run, so killing a fixed instance after its own 20th request can
	// miss the run. The busier instance keeps most of each client's
	// remaining requests, enough for every client to mark it down.
	const killAt = 40
	var (
		served [2]atomic.Int64
		total  atomic.Int64
		victim atomic.Int64
		dead   sync.Once
		ts     [2]*httptest.Server
	)
	for i := range ts {
		core := server.New(server.Config{
			Registry: obs.NewRegistry(),
			Faults:   fault.NewRegistry(1),
		})
		ts[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/") {
				served[i].Add(1)
				if total.Add(1) == killAt {
					v := 0
					if served[1].Load() > served[0].Load() {
						v = 1
					}
					victim.Store(int64(v))
					go dead.Do(func() {
						ts[v].CloseClientConnections()
						ts[v].Close()
					})
				}
			}
			core.ServeHTTP(w, r)
		}))
		t.Cleanup(ts[i].Close)
	}
	res, err := runLoad(loadConfig{
		URLs:      []string{ts[0].URL, ts[1].URL},
		Clients:   4,
		Requests:  40,
		Codecs:    []string{"lz77"},
		Seed:      7,
		Verify:    true,
		BodyCap:   512,
		Retries:   6,
		RetryBase: time.Millisecond,
		RetryMax:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("runLoad: %v", err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d errors despite failover (first: %s)", res.Errors, res.FirstError)
	}
	snap := res.Registry.Snapshot()
	if snap.Counters["zipload.failovers"] == 0 {
		t.Fatalf("no failovers counted around a dead instance (served %d and %d)", served[0].Load(), served[1].Load())
	}
	if want := ts[victim.Load()].URL; len(res.Unreachable) != 1 || res.Unreachable[0] != want {
		t.Fatalf("Unreachable = %v, want [%s]", res.Unreachable, want)
	}
}

// TestRunLoadSurvivesInstanceDeathAndRevival: two tiered instances, each
// with its own cache hierarchy, under a verifying, hedging, retrying
// load. A dies mid-run: its connections are cut and its cache is never
// closed, as a SIGKILL leaves it. After B has carried a further stretch
// of the load alone, A comes back on the same address as a fresh server
// over the same disk directory, so its startup scrub runs. Death and
// revival are triggered by request counts over both instances (A's own
// share depends on where the ring places its ephemeral port). The load
// must end with zero errors, and its clients must have failed over
// around the dead A. The same stream from fresh clients, whose health
// views never saw A die, must then run error-free with the revived A
// serving its share.
func TestRunLoadSurvivesInstanceDeathAndRevival(t *testing.T) {
	// Of the ~480 /v1 requests the load sends (compress + verify).
	const killAt, reviveAt = 60, 160
	var served atomic.Int64
	killed, revive := make(chan struct{}), make(chan struct{})
	count := func() {
		switch served.Add(1) {
		case killAt:
			close(killed)
		case reviveAt:
			close(revive)
		}
	}

	dirA := t.TempDir()
	a := httptest.NewServer(countV1(tieredCore(t, dirA), count))
	t.Cleanup(a.Close)
	addrA := a.Listener.Addr().String()
	b := httptest.NewServer(countV1(tieredCore(t, t.TempDir()), count))
	t.Cleanup(b.Close)

	// The supervisor kills and revives A; its outcome is the revived
	// server and its core (nil if the load ended first) or the error
	// that stopped it.
	type revived struct {
		ts   *httptest.Server
		core *server.Server
		err  error
	}
	loadDone := make(chan struct{})
	supervised := make(chan revived, 1)
	go func() {
		select {
		case <-killed:
		case <-loadDone:
			supervised <- revived{}
			return
		}
		a.CloseClientConnections()
		a.Close()
		select {
		case <-revive:
		case <-loadDone:
			supervised <- revived{}
			return
		}
		coreA, err := newTieredCore(dirA)
		if err != nil {
			supervised <- revived{err: err}
			return
		}
		ln, err := net.Listen("tcp", addrA)
		if err != nil {
			supervised <- revived{err: err}
			return
		}
		a2 := httptest.NewUnstartedServer(coreA)
		a2.Listener.Close()
		a2.Listener = ln
		a2.Start()
		supervised <- revived{ts: a2, core: coreA}
	}()

	cfg := loadConfig{
		URLs:      []string{a.URL, b.URL},
		Clients:   4,
		Requests:  60,
		Codecs:    []string{"lz77", "lzw", "bwt"},
		Seed:      11,
		ZipfS:     1.2,
		Verify:    true,
		BodyCap:   1024,
		Retries:   8,
		RetryBase: time.Millisecond,
		RetryMax:  20 * time.Millisecond,
		Hedge:     100 * time.Millisecond,
	}
	res, err := runLoad(cfg)
	close(loadDone)
	sup := <-supervised
	if sup.ts != nil {
		t.Cleanup(sup.ts.Close)
	}
	if err != nil {
		t.Fatalf("runLoad: %v", err)
	}
	if sup.err != nil {
		t.Fatalf("reviving A on %s: %v", addrA, sup.err)
	}
	if sup.ts == nil {
		t.Fatalf("load ended after %d requests, before A was killed and revived", served.Load())
	}
	if res.Errors > 0 {
		t.Fatalf("%d errors through A's death and revival (first: %s)", res.Errors, res.FirstError)
	}
	if fo := res.Registry.Snapshot().Counters["zipload.failovers"]; fo == 0 {
		t.Fatal("no failovers counted while A was dead")
	}

	res, err = runLoad(cfg)
	if err != nil {
		t.Fatalf("runLoad after the revival: %v", err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d errors after A's revival (first: %s)", res.Errors, res.FirstError)
	}
	if got := sup.core.Registry().Snapshot().Counters["server.requests"]; got == 0 {
		t.Fatal("the revived A served none of the fresh clients' requests")
	}
}

// countV1 calls count before every /v1 request the core serves.
func countV1(core http.Handler, count func()) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			count()
		}
		core.ServeHTTP(w, r)
	})
}

// TestRetryAfterHonored: a shed (503 + Retry-After: 1) response stretches
// the next backoff to at least the advertised second, then the retry
// succeeds.
func TestRetryAfterHonored(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded (queue full), retry later", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("recovered"))
	}))
	defer ts.Close()

	start := time.Now()
	res, err := runLoad(loadConfig{
		BaseURL:   ts.URL,
		Clients:   1,
		Requests:  1,
		Codecs:    []string{"lz77"},
		Seed:      3,
		Verify:    false,
		BodyCap:   64,
		Retries:   2,
		RetryBase: time.Millisecond,
		RetryMax:  5 * time.Second,
	})
	if err != nil {
		t.Fatalf("runLoad: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors, want recovery after the honored Retry-After", res.Errors)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("run finished in %v — Retry-After: 1 not honored as a backoff floor", elapsed)
	}
	if got := res.Registry.Snapshot().Counters["zipload.shed_seen"]; got != 1 {
		t.Fatalf("shed_seen = %d, want 1", got)
	}
}

// TestRetryAfterCapped: RetryMax caps an absurd Retry-After so a
// misbehaving server cannot stall the client.
func TestRetryAfterCapped(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "3600")
			http.Error(w, "overloaded", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("recovered"))
	}))
	defer ts.Close()

	start := time.Now()
	res, err := runLoad(loadConfig{
		BaseURL:   ts.URL,
		Clients:   1,
		Requests:  1,
		Codecs:    []string{"lz77"},
		Seed:      3,
		Verify:    false,
		BodyCap:   64,
		Retries:   2,
		RetryBase: time.Millisecond,
		RetryMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("runLoad: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("run took %v — RetryMax did not cap the Retry-After", elapsed)
	}
}

// TestUnreachableErrorMessage pins the exit-3 classification text.
func TestUnreachableErrorMessage(t *testing.T) {
	e := &unreachableError{addrs: []string{"http://a:1"}, errs: 2, requests: 10, first: "boom"}
	msg := e.Error()
	for _, want := range []string{"unreachable instances", "http://a:1", "2 of 10", "boom"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}
