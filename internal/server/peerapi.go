package server

// The /internal/cache surface: what one zipserverd instance exposes so
// another instance's PeerBackend can mount it as a cold tier. Read-only —
// a content-addressed GET plus an occupancy index — and served from the
// instance's local tiers only (peerTier), so two instances peered at each
// other terminate instead of recursing. Nothing from outside the process
// can write to a cache tier: a key hashes the public request, not the
// stored response, so a network store could not tell a planted value from
// a computed one (DESIGN.md §10).

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
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
