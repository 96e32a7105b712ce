package server

// The /internal/cache surface: what one zipserverd instance exposes so
// another instance's PeerBackend can mount it as a cold tier. Deliberately
// minimal — content-addressed GET/PUT plus an occupancy index — and served
// from the instance's local tiers only (peerTier), so two instances peered
// at each other terminate instead of recursing. The chaos corrupt hook is
// mounted only when the process runs with a fault registry.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"github.com/zipchannel/zipchannel/internal/fault"
)

// peerTier finds the remote peer tier in a cache chain — the cache itself,
// or the cold tier of a *TieredBackend, the only place zipserverd puts
// one — and returns it with the chain minus that tier: the view this
// instance serves on /internal/cache. Without a peer tier, peer is nil
// and local is the whole chain.
func peerTier(c CacheBackend) (peer *PeerBackend, local CacheBackend) {
	switch b := c.(type) {
	case *PeerBackend:
		return b, nil
	case *TieredBackend:
		if p, ok := b.cold.(*PeerBackend); ok {
			return p, b.hot
		}
	}
	return nil, c
}

// parseCacheKeyPath decodes the {key} path value (64 hex chars).
func parseCacheKeyPath(r *http.Request) (Key, bool) {
	var key Key
	raw, err := hex.DecodeString(r.PathValue("key"))
	if err != nil || len(raw) != sha256.Size {
		return key, false
	}
	copy(key[:], raw)
	return key, true
}

// handleCacheFetch serves GET /internal/cache/{key}: the stored value
// with its SHA-256 in X-Content-SHA256 (computed over the integrity-
// verified bytes, so the caller can detect transport damage), or 404.
func (s *Server) handleCacheFetch(w http.ResponseWriter, r *http.Request) {
	key, ok := parseCacheKeyPath(r)
	if !ok {
		http.Error(w, "bad cache key (want 64 hex chars)", http.StatusBadRequest)
		return
	}
	if s.local == nil {
		http.Error(w, "cache disabled", http.StatusNotFound)
		return
	}
	val, ok := s.local.Get(key)
	if !ok {
		http.NotFound(w, r)
		return
	}
	s.reg.Counter("server.peerapi.served").Inc()
	sum := sha256.Sum256(val)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Content-SHA256", hex.EncodeToString(sum[:]))
	w.Header().Set("Content-Length", fmt.Sprint(len(val)))
	w.Write(val)
}

// handleCacheStore serves PUT /internal/cache/{key}: stores the body
// under the key. The key hashes the *request* that produced the value,
// not the value itself, so the store cannot verify the binding — it
// enforces only the size cap. That leaves a poisoning hole (DESIGN.md
// §10): a key is a hash of public request data, so anyone who can reach
// this surface can store garbage under the key of a request other
// clients will send, and the next such /v1 request is a 200 HIT with the
// garbage. The read paths' integrity checks cannot catch it: they verify
// the stored bytes against a checksum taken over those same bytes.
func (s *Server) handleCacheStore(w http.ResponseWriter, r *http.Request) {
	key, ok := parseCacheKeyPath(r)
	if !ok {
		http.Error(w, "bad cache key (want 64 hex chars)", http.StatusBadRequest)
		return
	}
	if s.local == nil {
		http.Error(w, "cache disabled", http.StatusServiceUnavailable)
		return
	}
	val, err := io.ReadAll(io.LimitReader(r.Body, s.maxBody*2+1))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if int64(len(val)) > s.maxBody*2 {
		// Compressed responses can exceed the request cap (incompressible
		// input + framing), but never by 2x.
		http.Error(w, "entry exceeds peer store cap", http.StatusRequestEntityTooLarge)
		return
	}
	s.local.Put(key, val)
	s.reg.Counter("server.peerapi.stored").Inc()
	w.WriteHeader(http.StatusNoContent)
}

// handleCacheIndex serves GET /internal/cache: the served view's name and
// occupancy (a PeerBackend's Stats).
func (s *Server) handleCacheIndex(w http.ResponseWriter, r *http.Request) {
	idx := peerIndex{Backend: "disabled"}
	if s.local != nil {
		idx.Backend = s.local.Name()
		idx.Entries, idx.Bytes = s.local.Stats()
	}
	b, err := json.Marshal(idx)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(b, '\n'))
}

// handleCacheCorrupt serves POST /internal/cache/{key}/corrupt — the
// chaos hook behind PeerBackend.CorruptStored, mounted only when this
// process runs with a fault registry. The rand query parameter carries
// the injection's deterministic payload so the flipped byte is
// reproducible across runs.
func (s *Server) handleCacheCorrupt(w http.ResponseWriter, r *http.Request) {
	key, ok := parseCacheKeyPath(r)
	if !ok {
		http.Error(w, "bad cache key (want 64 hex chars)", http.StatusBadRequest)
		return
	}
	if s.local == nil {
		http.Error(w, "cache disabled", http.StatusServiceUnavailable)
		return
	}
	rnd, err := strconv.ParseUint(r.URL.Query().Get("rand"), 10, 64)
	if err != nil {
		http.Error(w, "bad rand parameter", http.StatusBadRequest)
		return
	}
	s.local.CorruptStored(key, fault.Injection{Kind: fault.KindCorrupt, Point: "peerapi", Rand: rnd})
	s.reg.Counter("server.peerapi.corruptions_injected").Inc()
	w.WriteHeader(http.StatusNoContent)
}
