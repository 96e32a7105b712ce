package server

// The pagestore surface: PUT/GET /v1/pages/{id} mounts an
// internal/pagestore.Store behind the same middleware stack as the
// codec endpoints — the work gate (slots, shedding, request deadline),
// tracing, SLO accounting, and the access log (codec "pages", op
// "put"/"get").
//
// The response deliberately leaks the page's store cost in the
// X-Page-Steps header: a remote attacker co-located with a secret in
// one page (pagestore.Store.Plant) needs nothing more than this number
// to run the compression-time oracle (internal/zipchannel, cmd/zippages).
// In a real deployment the same quantity leaks through wall-clock
// response time; surfacing it explicitly keeps the reproduction
// deterministic.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/pagestore"
)

// Page response headers: the oracle-visible cost plus the compression
// envelope of the stored page.
const (
	PageStepsHeader   = "X-Page-Steps"
	PageCodecHeader   = "X-Page-Codec"
	PageCompLenHeader = "X-Page-Compressed-Len"
	PageRatioHeader   = "X-Page-Ratio"
)

// setPageHeaders stamps the page envelope on a response.
func setPageHeaders(hdr http.Header, info pagestore.PageInfo) {
	hdr.Set(PageStepsHeader, strconv.FormatInt(info.Steps, 10))
	hdr.Set(PageCodecHeader, info.Codec)
	hdr.Set(PageCompLenHeader, strconv.Itoa(info.CompressedLen))
	hdr.Set(PageRatioHeader, strconv.FormatFloat(info.Ratio, 'f', 4, 64))
}

// pageError maps a pagestore error onto the HTTP surface, counting it
// like the codec error paths.
func (s *Server) pageError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, pagestore.ErrNotFound):
		s.reg.Counter("server.errors.page_not_found").Inc()
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, pagestore.ErrTooLarge), errors.Is(err, pagestore.ErrBadPlant):
		s.reg.Counter("server.errors.page_too_large").Inc()
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
	case errors.Is(err, pagestore.ErrCorrupt):
		// Detected corruption is a 500: the stored copy may be intact (a
		// transient read-path fault), so clients retry — the zipload
		// recovery path depends on exactly this mapping.
		s.reg.Counter("server.errors.page_corrupt").Inc()
		http.Error(w, err.Error(), http.StatusInternalServerError)
	case errors.Is(err, errShed):
		s.writeShed(w, "pages")
	case errors.Is(err, fault.ErrInjected), errors.Is(err, errTransient):
		s.reg.Counter("server.errors.transient").Inc()
		http.Error(w, err.Error(), http.StatusInternalServerError)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.reg.Counter("server.errors.deadline").Inc()
		http.Error(w, "request deadline exceeded", http.StatusGatewayTimeout)
	default:
		s.reg.Counter("server.errors.page").Inc()
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// runPageOp executes one store operation under the work gate — page
// compression is codec work, so it shares the slots, shedding and
// deadline of the /v1/{codec} endpoints. The gate contains panics
// (injected pagestore faults included) as transient errors.
func (s *Server) runPageOp(ctx context.Context, op string, fn func() error) error {
	ctx, cancel, err := s.gate.enter(ctx)
	if err != nil {
		return err
	}
	defer s.gate.leave(cancel)
	return s.gate.do(ctx, "server.pages.run", func(sp *obs.TraceSpan) error {
		sp.SetAttr("op", op)
		return fn()
	})
}

// handlePagePut serves PUT /v1/pages/{id}: store the request body into
// the page (only the attacker-owned region of a planted page is
// writable) and report the store's compression envelope — including the
// oracle-visible step cost.
func (s *Server) handlePagePut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ri := s.routed(r, s.ops[opKey{"pages", "put"}])

	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	s.reg.Counter("server.bytes_in").Add(uint64(len(body)))
	ri.bytesIn = len(body)

	var info pagestore.PageInfo
	err := s.runPageOp(r.Context(), "put", func() (err error) {
		info, err = s.pages.Write(id, body)
		return err
	})
	if err != nil {
		s.pageError(w, err)
		return
	}

	hdr := w.Header()
	hdr.Set("Content-Type", "application/json")
	setPageHeaders(hdr, info)
	b, merr := json.Marshal(info)
	if merr != nil {
		http.Error(w, merr.Error(), http.StatusInternalServerError)
		return
	}
	b = append(b, '\n')
	hdr.Set("Content-Length", fmt.Sprint(len(b)))
	if _, err := w.Write(b); err != nil {
		s.reg.Counter("server.errors.write_response").Inc()
		return
	}
	s.reg.Counter("server.bytes_out").Add(uint64(len(b)))
}

// handlePageGet serves GET /v1/pages/{id}: decompress, verify, and
// return the caller-visible bytes (the attacker region for a planted
// page — the co-located secret never crosses the HTTP surface either).
func (s *Server) handlePageGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.routed(r, s.ops[opKey{"pages", "get"}])

	var (
		data []byte
		info pagestore.PageInfo
	)
	err := s.runPageOp(r.Context(), "get", func() (err error) {
		data, info, err = s.pages.Read(id)
		return err
	})
	if err != nil {
		s.pageError(w, err)
		return
	}

	hdr := w.Header()
	hdr.Set("Content-Type", "application/octet-stream")
	setPageHeaders(hdr, info)
	hdr.Set("Content-Length", fmt.Sprint(len(data)))
	if _, err := w.Write(data); err != nil {
		s.reg.Counter("server.errors.write_response").Inc()
		return
	}
	s.reg.Counter("server.bytes_out").Add(uint64(len(data)))
}
