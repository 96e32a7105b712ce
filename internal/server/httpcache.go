package server

// HTTP cache semantics for the /v1 endpoints (DESIGN.md §10). The
// content-addressed design makes real HTTP caching nearly free: the
// SHA-256 cache key of (op, codec, level, body) is a strong validator of
// the response by construction — identical inputs through a
// deterministic codec produce identical outputs — so it serves as the
// ETag, If-None-Match can be answered before running any codec, and
// intermediaries can cache under Cache-Control with Vary partitioning on
// the codec-level request header.

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// DefaultCacheMaxAge is the max-age (seconds) advertised on cacheable
// /v1 responses; content-addressed responses never go stale (the address
// pins the bytes), so this bounds client memory, not correctness.
const DefaultCacheMaxAge = 300

// LevelHeader is the request header selecting a compression level. The
// codecs currently implement a single level, but the header partitions
// the cache key space and the response Vary, so clients and
// intermediaries can never conflate responses across levels once
// leveled codecs land. Valid values: "" (default) or "0".."9".
const LevelHeader = "X-Zip-Level"

// etagFor renders the strong ETag for a content address: the full hex
// SHA-256, quoted per RFC 9110.
func etagFor(key Key) string {
	return `"` + hex.EncodeToString(key[:]) + `"`
}

// parseLevel validates the X-Zip-Level request header: empty (default
// level) or a single digit. Anything else is a 400 — a typo'd level
// silently mapping to the default would poison the Vary partition.
func parseLevel(s string) (string, error) {
	if s == "" {
		return "", nil
	}
	if len(s) == 1 && s[0] >= '0' && s[0] <= '9' {
		return s, nil
	}
	return "", fmt.Errorf("invalid %s %q (want empty or 0-9)", LevelHeader, s)
}

// cacheControl is the parsed request Cache-Control directives the server
// honors (RFC 9111 §5.2.1). Unknown directives are ignored, as the RFC
// requires.
type cacheControl struct {
	NoCache bool  // "no-cache": bypass the cache lookup, recompute, still store
	NoStore bool  // "no-store": bypass lookup and store entirely
	MaxAge  int64 // "max-age=N" seconds; -1 when absent
}

// parseCacheControl parses a Cache-Control header value: a comma-
// separated directive list, each directive a token optionally followed
// by =value where value may be a quoted string. Parsing is forgiving
// (bad directives are skipped) because a request header must never be
// able to 500 the server — the fuzz target holds it to that.
func parseCacheControl(s string) cacheControl {
	cc := cacheControl{MaxAge: -1}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, hasVal := strings.Cut(part, "=")
		name = strings.ToLower(strings.TrimSpace(name))
		val = strings.TrimSpace(val)
		if len(val) >= 2 && val[0] == '"' && val[len(val)-1] == '"' {
			val = val[1 : len(val)-1]
		}
		switch name {
		case "no-cache":
			cc.NoCache = true
		case "no-store":
			cc.NoStore = true
		case "max-age":
			if !hasVal {
				continue
			}
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				continue
			}
			cc.MaxAge = n
		}
	}
	return cc
}

// parseIfNoneMatch parses an If-None-Match validator list (RFC 9110
// §8.8.3 / §13.1.2): `*`, or a comma-separated list of entity tags,
// each optionally weak (`W/"..."`). Returns the list of opaque tags
// (quotes stripped, weakness dropped — weak comparison is correct for
// If-None-Match) and whether the wildcard was present. Malformed
// members are skipped; the parser must be total over arbitrary input
// (fuzzed).
func parseIfNoneMatch(s string) (tags []string, wildcard bool) {
	rest := s
	for {
		rest = strings.TrimLeft(rest, " \t,")
		if rest == "" {
			return tags, wildcard
		}
		if rest[0] == '*' {
			wildcard = true
			rest = rest[1:]
			continue
		}
		if strings.HasPrefix(rest, "W/") || strings.HasPrefix(rest, "w/") {
			rest = rest[2:]
		}
		if rest == "" || rest[0] != '"' {
			// Not a valid entity-tag: skip to the next comma.
			if i := strings.IndexByte(rest, ','); i >= 0 {
				rest = rest[i+1:]
				continue
			}
			return tags, wildcard
		}
		end := strings.IndexByte(rest[1:], '"')
		if end < 0 {
			// Unterminated tag: ignore the remainder.
			return tags, wildcard
		}
		tags = append(tags, rest[1:1+end])
		rest = rest[2+end:]
	}
}

// etagMatches reports whether the request's If-None-Match header matches
// the response's strong ETag (weak comparison: W/ prefixes were already
// dropped by the parser).
func etagMatches(header, etag string) bool {
	tags, wildcard := parseIfNoneMatch(header)
	if wildcard {
		return true
	}
	want := strings.Trim(etag, `"`)
	for _, tag := range tags {
		if tag == want {
			return true
		}
	}
	return false
}
