package server

// Singleflight regression: a miss storm on one key must cost exactly one
// codec execution — the leader computes under an injected slowdown while
// every concurrent duplicate either coalesces onto its flight or hits
// the entry the leader stored. This is the economic point of the cache
// hierarchy: a stampede can never multiply codec work.

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
)

func TestFlightMissStormSingleExecution(t *testing.T) {
	faults := fault.NewRegistry(1)
	// Hold the leader in the codec for 150ms so all duplicates arrive
	// while its flight is open.
	if err := faults.ArmAll("server.codec.compress=latency:1:150000"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := New(Config{Registry: reg, Faults: faults, Workers: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	const storm = 32
	body := []byte("one hot key, thirty-two requests")
	var (
		start = make(chan struct{})
		wg    sync.WaitGroup
		mu    sync.Mutex
		bad   []string
		first []byte
	)
	for i := 0; i < storm; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := ts.Client().Post(ts.URL+"/v1/lz77/compress", "application/octet-stream", bytes.NewReader(body))
			if err != nil {
				mu.Lock()
				bad = append(bad, err.Error())
				mu.Unlock()
				return
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			if resp.StatusCode != http.StatusOK {
				bad = append(bad, resp.Status)
				return
			}
			if first == nil {
				first = out
			} else if !bytes.Equal(first, out) {
				bad = append(bad, "response bytes diverged within the storm")
			}
		}()
	}
	close(start)
	wg.Wait()
	if len(bad) > 0 {
		t.Fatalf("%d failed requests, first: %s", len(bad), bad[0])
	}

	snap := reg.Snapshot()
	if got := snap.Counters["server.codec.executions"]; got != 1 {
		t.Fatalf("server.codec.executions = %d for a %d-request miss storm, want exactly 1", got, storm)
	}
	// Every non-leader either coalesced onto the open flight or hit the
	// stored entry; nothing fell through to a second execution.
	shared := snap.Counters["server.flight.shared"]
	hits := snap.Counters["server.cache.hits"]
	if shared+hits != storm-1 {
		t.Fatalf("flight.shared (%d) + cache.hits (%d) = %d, want %d followers accounted for",
			shared, hits, shared+hits, storm-1)
	}
	if shared == 0 {
		t.Fatal("no request coalesced — the storm never overlapped the leader's flight")
	}
}

// TestFlightSharesFailures: followers coalesced onto a flight whose
// leader fails share that failure instead of retrying the codec
// themselves — an error storm is also exactly one execution.
func TestFlightSharesFailures(t *testing.T) {
	var g flightGroup
	key := cacheKey("compress", "lz77", "", []byte("doomed"))
	const n = 8
	var (
		wg      sync.WaitGroup
		started = make(chan struct{})
		release = make(chan struct{})
		mu      sync.Mutex
		execs   int
		shares  int
		errs    int
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := g.do(key, func() ([]byte, error) {
			close(started)
			<-release
			mu.Lock()
			execs++
			mu.Unlock()
			return nil, io.ErrUnexpectedEOF
		})
		if err != io.ErrUnexpectedEOF {
			t.Errorf("leader error = %v", err)
		}
	}()
	<-started
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, shared, err := g.do(key, func() ([]byte, error) {
				mu.Lock()
				execs++
				mu.Unlock()
				return nil, nil
			})
			mu.Lock()
			defer mu.Unlock()
			if shared {
				shares++
			}
			if err == io.ErrUnexpectedEOF {
				errs++
			}
		}()
	}
	// Give the followers time to join the held flight before releasing
	// the leader; a straggler that arrives after completion becomes its
	// own leader (counted below), so the assertions allow it but require
	// at least one genuine share.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if execs == 0 || execs > 1+n {
		t.Fatalf("execs = %d", execs)
	}
	if shares == 0 || shares != errs {
		t.Fatalf("shares = %d, shared errors = %d — followers did not share the leader's failure", shares, errs)
	}
}

// TestFlightLeaderPanicReleasesKey: a leader that panics out of its
// flight (here an injected gate panic, which propagates to the request's
// panic recovery) must still end the flight. Before the fix the key
// stayed registered with its done channel open, so every later miss on
// the same content address blocked forever.
func TestFlightLeaderPanicReleasesKey(t *testing.T) {
	faults := fault.NewRegistry(1)
	if err := faults.ArmAll("server.gate.acquire=panic@1"); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	// In process, not over a listener: a wedged request must fail this
	// test, not hang the server's shutdown.
	s := New(Config{Registry: reg, Faults: faults})
	body := []byte("a body whose leader panics")
	for i := 0; i < 2; i++ {
		done := make(chan int, 1)
		go func() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/lz77/compress", bytes.NewReader(body)))
			done <- rec.Code
		}()
		select {
		case code := <-done:
			if code != http.StatusInternalServerError {
				t.Fatalf("request %d: status %d, want 500", i, code)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("request %d still blocked after 2s: the panicked flight was never released", i)
		}
	}
	if got := reg.Counter("server.errors.panic").Value(); got != 2 {
		t.Fatalf("server.errors.panic = %d, want 2 (each leader's panic reaches its recovery)", got)
	}
}

// TestFlightPanicFailsFollowers: followers waiting on a leader that
// panics get a transient error instead of the leader's (absent) result,
// and the panic itself continues up the leader's stack.
func TestFlightPanicFailsFollowers(t *testing.T) {
	var g flightGroup
	key := cacheKey("compress", "lz77", "", []byte("panics"))
	started := make(chan struct{})
	release := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		g.do(key, func() ([]byte, error) {
			close(started)
			<-release
			panic("leader crash")
		})
	}()
	<-started
	followerErr := make(chan error, 1)
	var followerLed atomic.Bool
	go func() {
		_, _, err := g.do(key, func() ([]byte, error) { followerLed.Store(true); return nil, nil })
		followerErr <- err
	}()
	// Give the follower time to join the held flight. One that arrives
	// after the flight ended leads a fresh flight instead, which the
	// check below allows.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if v := <-leaderPanic; v != "leader crash" {
		t.Fatalf("leader recovered %v, want its own panic", v)
	}
	if err := <-followerErr; !followerLed.Load() && !errors.Is(err, errFlightPanic) {
		t.Fatalf("follower err = %v, want errFlightPanic", err)
	}
	if _, _, err := g.do(key, func() ([]byte, error) { return nil, nil }); err != nil {
		t.Fatalf("key still held after the panicked flight: %v", err)
	}
}
