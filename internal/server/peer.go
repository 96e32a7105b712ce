package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
)

// FaultPeerGet fires on PeerBackend.Get: error injections skip the
// network call entirely (peer down), latency injections delay it (slow
// peer; combined with a short client timeout this is the peer-timeout
// chaos scenario). Either degradation is a miss, never a failure.
const FaultPeerGet = "server.cache.peer.get"

// DefaultPeerTimeout bounds every peer cache exchange: a cold-tier
// lookup that is slower than recomputing the response is worse than a
// miss.
const DefaultPeerTimeout = 2 * time.Second

// Peer probation defaults (DESIGN.md §13). Without probation a dead peer
// costs one connection failure — worst case a full DefaultPeerTimeout —
// on *every* cold-tier lookup; with it, consecutive transport failures
// open a breaker and the dead peer costs one atomic check until a probe
// succeeds.
const (
	// DefaultPeerFailureThreshold is how many consecutive transport
	// failures put the peer on probation (open).
	DefaultPeerFailureThreshold = 3
	// DefaultPeerProbeAfter is how many peer operations are skipped
	// while on probation before one probe request is let through.
	DefaultPeerProbeAfter = 16
)

// PeerBackend fronts another zipserverd instance's cache over HTTP (the
// read-only /internal/cache surface served by every Server), making a
// fleet member's cache a cold tier of this one — the cross-instance
// sharing that turns N processes into one logical cache, and
// (deliberately, for this repo's research goal) extends the
// shared-compression-state attack surface across tenants on different
// machines: a content-addressed hit is observable fleet-wide. The tier is
// read-only: Put and CorruptStored are no-ops, so the peer serves only
// entries it computed itself.
//
// Every value read from a peer is integrity-checked against the
// X-Content-SHA256 header the peer computed over the bytes it serves; a
// mismatch (transport damage) is a detected corruption + miss.
// Network failures and timeouts degrade to misses and a counter.
// A dead peer is handled with failure-count probation: the same
// deterministic count-based breaker that guards the codecs. After
// DefaultPeerFailureThreshold consecutive transport failures the breaker
// opens and every peer exchange (Get, Stats) short-circuits
// to a local miss/zeros — ~zero cost instead of a timeout per lookup —
// until DefaultPeerProbeAfter skipped operations admit one probe; a
// successful probe closes the breaker. Checksum mismatches and 404s do
// NOT count against probation (the peer answered; the entry is just bad
// or absent).
type PeerBackend struct {
	base   string
	client *http.Client

	hits    *obs.Counter
	misses  *obs.Counter
	errors  *obs.Counter
	opens   *obs.Counter // probation trips
	skipped *obs.Counter // operations short-circuited while open
	stateG  *obs.Gauge   // 0 closed, 1 open, 2 trial
	reg     *obs.Registry
	prefix  string
	fpGet   *fault.Point
	timeout time.Duration
	bk      *breaker
}

// NewPeerBackend creates a backend fronting the zipserverd instance at
// baseURL (scheme://host:port, no trailing slash needed). timeout <= 0
// means DefaultPeerTimeout.
func NewPeerBackend(baseURL string, timeout time.Duration, reg *obs.Registry, prefix string, faults *fault.Registry) *PeerBackend {
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	return &PeerBackend{
		base:    baseURL,
		client:  &http.Client{Timeout: timeout},
		hits:    reg.Counter(prefix + ".hits"),
		misses:  reg.Counter(prefix + ".misses"),
		errors:  reg.Counter(prefix + ".errors"),
		opens:   reg.Counter(prefix + ".probation.opens"),
		skipped: reg.Counter(prefix + ".probation.skipped"),
		stateG:  reg.Gauge(prefix + ".probation.state"),
		reg:     reg,
		prefix:  prefix,
		fpGet:   faults.Point(FaultPeerGet),
		timeout: timeout,
		bk:      newBreaker(DefaultPeerFailureThreshold, DefaultPeerProbeAfter),
	}
}

// admit consults the probation breaker before a network exchange. A
// false return means the peer is on probation and the caller must
// degrade locally (miss / zero stats) without touching the network.
func (p *PeerBackend) admit() bool {
	if p.bk.allow() {
		return true
	}
	p.skipped.Inc()
	p.syncState()
	return false
}

// recordFailure counts one transport failure, incrementing the
// probation-open counter when this failure trips the breaker.
func (p *PeerBackend) recordFailure() {
	if p.bk.record(false) {
		p.opens.Inc()
	}
	p.syncState()
}

// recordSuccess marks the peer reachable (closing a trial breaker).
func (p *PeerBackend) recordSuccess() {
	p.bk.record(true)
	p.syncState()
}

func (p *PeerBackend) syncState() {
	p.stateG.Set(float64(p.bk.stateCode()))
}

// PeerState reports the probation breaker's state ("closed", "open",
// "trial"); /healthz surfaces it as peer_state so a fleet dashboard can
// watch a dead peer's breaker open and recover without scraping metrics.
func (p *PeerBackend) PeerState() string { return p.bk.stateName() }

func (p *PeerBackend) url(key Key) string {
	return p.base + "/internal/cache/" + hex.EncodeToString(key[:])
}

// Name implements CacheBackend.
func (p *PeerBackend) Name() string { return "peer" }

// Get implements CacheBackend: one GET against the peer's cache surface.
// Anything short of a verified 200 — connection refused, timeout, 404,
// checksum mismatch, injected fault, probation — is a miss.
func (p *PeerBackend) Get(key Key) ([]byte, bool) {
	switch in := p.fpGet.Hit(); in.Kind {
	case fault.KindError:
		// Injected "peer down": feed probation exactly like a real
		// transport failure, so chaos runs rehearse the breaker.
		p.errors.Inc()
		p.misses.Inc()
		p.recordFailure()
		return nil, false
	case fault.KindLatency:
		time.Sleep(time.Duration(in.Param) * time.Microsecond)
	}
	if !p.admit() {
		p.misses.Inc()
		return nil, false
	}
	resp, err := p.client.Get(p.url(key))
	if err != nil {
		p.errors.Inc()
		p.misses.Inc()
		p.recordFailure()
		return nil, false
	}
	defer resp.Body.Close()
	p.recordSuccess()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode != http.StatusNotFound {
			p.errors.Inc()
		}
		p.misses.Inc()
		return nil, false
	}
	val, err := io.ReadAll(resp.Body)
	if err != nil {
		p.errors.Inc()
		p.misses.Inc()
		return nil, false
	}
	sum := sha256.Sum256(val)
	if hex.EncodeToString(sum[:]) != resp.Header.Get("X-Content-SHA256") {
		p.reg.Counter(p.prefix + ".corruptions_detected").Inc()
		p.misses.Inc()
		return nil, false
	}
	p.hits.Inc()
	return val, true
}

// Put implements CacheBackend as a no-op: the peer tier is read-only.
// A peer serves only what it computed itself, so there is no network
// call and nothing for probation to count.
func (p *PeerBackend) Put(key Key, val []byte) {}

// CorruptStored implements CacheBackend as a no-op: nothing on the peer
// can be written from here, the chaos hook included. Damage in transit is
// still caught by Get's X-Content-SHA256 check.
func (p *PeerBackend) CorruptStored(key Key, in fault.Injection) {}

// peerIndex is the GET /internal/cache body: the served view's name and
// occupancy — constant-size, whatever the peer holds.
type peerIndex struct {
	Backend string `json:"backend"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes"`
}

// Stats implements CacheBackend with one GET /internal/cache (zeros when
// the peer is unreachable or on probation).
func (p *PeerBackend) Stats() (entries int, bytes int64) {
	if !p.admit() {
		return 0, 0
	}
	resp, err := p.client.Get(p.base + "/internal/cache")
	if err != nil {
		p.errors.Inc()
		p.recordFailure()
		return 0, 0
	}
	defer resp.Body.Close()
	p.recordSuccess()
	var idx peerIndex
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&idx) != nil {
		p.errors.Inc()
		return 0, 0
	}
	return idx.Entries, idx.Bytes
}

// Close implements CacheBackend.
func (p *PeerBackend) Close() error {
	p.client.CloseIdleConnections()
	return nil
}
