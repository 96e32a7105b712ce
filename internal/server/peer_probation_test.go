package server

// Peer probation tests (DESIGN.md §13): a dead peer must cost ~zero after
// the breaker opens, probes must be rationed, and a recovered peer must
// close the breaker — the open→trial→closed cycle the chaos-cluster
// harness asserts end to end.

import (
	"crypto/sha256"
	"encoding/hex"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
)

// deadAddr reserves a localhost port and releases it, yielding an address
// that refuses connections (until the test rebinds it).
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestPeerProbationOpensAndRations: consecutive transport failures open
// the breaker; while open, every operation short-circuits without
// touching the network (fast, counted as skipped) until the probe ration
// admits one more attempt.
func TestPeerProbationOpensAndRations(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPeerBackend("http://"+deadAddr(t), 200*time.Millisecond,
		reg, "peer", fault.NewRegistry(0))
	defer p.Close()

	var key Key
	copy(key[:], []byte("probation-key-0123456789abcdef"))

	// Threshold consecutive transport failures trip the breaker.
	for i := 0; i < DefaultPeerFailureThreshold; i++ {
		if state := p.PeerState(); state != "closed" {
			t.Fatalf("before failure %d: state %q, want closed", i, state)
		}
		if _, ok := p.Get(key); ok {
			t.Fatalf("Get %d against dead peer reported a hit", i)
		}
	}
	if state := p.PeerState(); state != "open" {
		t.Fatalf("after %d failures: state %q, want open", DefaultPeerFailureThreshold, state)
	}
	if got := reg.Counter("peer.probation.opens").Value(); got != 1 {
		t.Fatalf("probation.opens = %d, want 1", got)
	}

	// While open, operations are short-circuited — and fast: no dial, no
	// timeout. The whole cooldown's worth of lookups must take a small
	// fraction of a single 200ms connect timeout.
	start := time.Now()
	for i := 0; i < DefaultPeerProbeAfter; i++ {
		if _, ok := p.Get(key); ok {
			t.Fatalf("skip %d: hit from a peer on probation", i)
		}
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("%d probation skips took %v, want ~zero cost", DefaultPeerProbeAfter, d)
	}
	if got := reg.Counter("peer.probation.skipped").Value(); got != DefaultPeerProbeAfter {
		t.Fatalf("probation.skipped = %d, want %d", got, DefaultPeerProbeAfter)
	}
	if state := p.PeerState(); state != "trial" {
		t.Fatalf("after cooldown: state %q, want trial", state)
	}

	// The trial probe reaches the (still dead) peer and re-opens.
	if _, ok := p.Get(key); ok {
		t.Fatal("trial probe against dead peer reported a hit")
	}
	if state := p.PeerState(); state != "open" {
		t.Fatalf("after failed probe: state %q, want open", state)
	}
	if got := reg.Counter("peer.probation.opens").Value(); got != 2 {
		t.Fatalf("probation.opens after failed probe = %d, want 2", got)
	}

	// Stats is rationed the same way: no network, no growth in the error
	// counter.
	errsBefore := reg.Counter("peer.errors").Value()
	if e, b := p.Stats(); e != 0 || b != 0 {
		t.Fatalf("Stats on probation = (%d, %d), want zeros", e, b)
	}
	if got := reg.Counter("peer.errors").Value(); got != errsBefore {
		t.Fatalf("probationed ops touched the network: errors %d → %d", errsBefore, got)
	}
}

// TestPeerProbationRecovers: once the peer is reachable again, the first
// admitted probe closes the breaker and normal service resumes.
func TestPeerProbationRecovers(t *testing.T) {
	reg := obs.NewRegistry()
	addr := deadAddr(t)
	p := NewPeerBackend("http://"+addr, 200*time.Millisecond,
		reg, "peer", fault.NewRegistry(0))
	defer p.Close()

	var key Key
	copy(key[:], []byte("recovery-key-0123456789abcdefgh"))

	for i := 0; i < DefaultPeerFailureThreshold; i++ {
		p.Get(key)
	}
	if state := p.PeerState(); state != "open" {
		t.Fatalf("state %q, want open", state)
	}
	for i := 0; i < DefaultPeerProbeAfter; i++ {
		p.Get(key)
	}

	// Resurrect the peer on the same address: a minimal cache surface
	// that answers 404 (alive, entry absent).
	var l net.Listener
	var err error
	for i := 0; i < 50; i++ {
		if l, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	}))
	ts.Listener.Close()
	ts.Listener = l
	ts.Start()
	defer ts.Close()

	// The admitted trial probe answers (a 404 means the peer is alive) and
	// closes the breaker.
	if _, ok := p.Get(key); ok {
		t.Fatal("404 probe reported a hit")
	}
	if state := p.PeerState(); state != "closed" {
		t.Fatalf("after successful probe: state %q, want closed", state)
	}
	if got := reg.Gauge("peer.probation.state").Value(); got != 0 {
		t.Fatalf("probation.state gauge = %v, want 0 (closed)", got)
	}
}

// TestPeerProbationChecksumMismatchNotCounted: a peer that answers with
// damaged bytes is alive — integrity failures must not open probation.
func TestPeerProbationChecksumMismatchNotCounted(t *testing.T) {
	reg := obs.NewRegistry()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sum := sha256.Sum256([]byte("original"))
		w.Header().Set("X-Content-SHA256", hex.EncodeToString(sum[:]))
		w.Write([]byte("tampered"))
	}))
	defer ts.Close()
	p := NewPeerBackend(ts.URL, 0, reg, "peer", fault.NewRegistry(0))
	defer p.Close()

	var key Key
	for i := 0; i < 3*DefaultPeerFailureThreshold; i++ {
		if _, ok := p.Get(key); ok {
			t.Fatalf("Get %d accepted tampered bytes", i)
		}
	}
	if state := p.PeerState(); state != "closed" {
		t.Fatalf("checksum mismatches opened probation: state %q", state)
	}
	if got := reg.Counter("peer.corruptions_detected").Value(); got == 0 {
		t.Fatal("tampered responses not counted as corruption")
	}
}
