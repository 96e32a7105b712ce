package server

import (
	"bytes"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// benchPayload is a 1 KiB compressible request body.
var benchPayload = []byte(strings.Repeat("zipserverd bench payload ", 41))[:1024]

// serveOnce dispatches one in-process lz77 compress request.
func serveOnce(b *testing.B, s *Server, body []byte) {
	req := httptest.NewRequest("POST", "/v1/lz77/compress", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
}

// BenchmarkServeHit measures one in-process /v1 request answered from
// the response cache: middleware, handler, cache lookup and metrics, no
// codec work and no loopback HTTP.
func BenchmarkServeHit(b *testing.B) {
	s := New(Config{})
	serveOnce(b, s, benchPayload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, s, benchPayload)
	}
}

// BenchmarkServeMiss measures one in-process /v1 request that misses
// the cache: every iteration sends a distinct body, so each one runs
// the codec under the worker gate and stores the result.
func BenchmarkServeMiss(b *testing.B) {
	s := New(Config{})
	bodies := make([][]byte, b.N)
	for i := range bodies {
		body := append([]byte(nil), benchPayload...)
		binary.LittleEndian.PutUint64(body, uint64(i))
		bodies[i] = body
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, s, bodies[i])
	}
}
