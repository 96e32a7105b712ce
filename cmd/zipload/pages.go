package main

// Page-store traffic for zipload: with -pagestore > 0, that fraction of
// each client's iterations exercises PUT/GET /v1/pages/{id} against a
// zipserverd started with -pagestore, verifying every read round-trip.
//
// The feature is strictly opt-in at the byte level: page traffic draws
// from its own RNG stream (split separately from the codec stream), page
// ids are routed and folded into the -digest accumulator only when the
// flag is set, and a run with -pagestore 0 draws nothing from the page
// stream at all — so cluster baselines against servers with or without
// a mounted page store stay byte-identical.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"
)

// onePageRequest performs one PUT + verifying GET exchange against the
// page store. Page ids are namespaced per client (c{i}-p{n}) so exact-
// byte verification never races another client's overwrite; in a
// cluster, the id routes through the consistent-hash ring like a codec
// body would, pinning each page to one instance.
func onePageRequest(httpc *http.Client, cfg loadConfig, rt *ring, client int, cr *clientResult, rng *rand.Rand) {
	fail := func(format string, args ...any) {
		cr.errors++
		cr.reg.Counter("zipload.errors").Inc()
		if cr.firstErr == "" {
			cr.firstErr = fmt.Sprintf(format, args...)
		}
	}
	id := fmt.Sprintf("c%d-p%d", client, rng.Intn(cfg.PageIDs))
	body := pageBody(cfg, rng)
	base := rt.urls[rt.pick("pages", []byte(id))]

	if err := pageExchange(httpc, cfg, cr, rng, http.MethodPut, base, id, body, nil); err != nil {
		fail("page put %s: %v", id, err)
		return
	}
	var got []byte
	if err := pageExchange(httpc, cfg, cr, rng, http.MethodGet, base, id, nil, &got); err != nil {
		fail("page get %s: %v", id, err)
		return
	}
	// A page read returns the full (or attacker-region) page: the written
	// prefix must match, the tail is zero padding.
	if len(got) < len(body) || !bytes.Equal(got[:len(body)], body) {
		fail("page round trip %s: wrote %d bytes, read %d back with mismatch", id, len(body), len(got))
	}
}

// pageBody draws a deterministic page payload from the corpus pool,
// capped to the configured page size.
func pageBody(cfg loadConfig, rng *rand.Rand) []byte {
	data := cfg.pagePool[rng.Intn(len(cfg.pagePool))]
	if len(data) > cfg.PageBytes {
		data = data[:cfg.PageBytes]
	}
	return data
}

// pageExchange issues one page PUT or GET with the same transient-retry
// contract as the codec path: 5xx and connection errors retry with
// seeded backoff (a transient load corruption heals on re-read — the
// pagestore chaos semantics), 4xx surface immediately.
func pageExchange(httpc *http.Client, cfg loadConfig, cr *clientResult, rng *rand.Rand,
	method, base, id string, body []byte, out *[]byte) error {
	op := "get"
	if method == http.MethodPut {
		op = "put"
	}
	for attempt := 0; ; attempt++ {
		cr.requests++
		cr.reg.Counter("zipload.requests").Inc()
		cr.reg.Counter("zipload.pages." + op).Inc()
		start := time.Now()
		req, err := http.NewRequest(method, base+"/v1/pages/"+id, bytes.NewReader(body))
		if err != nil {
			return err
		}
		resp, err := httpc.Do(req)
		var respBody []byte
		transient := true
		if err == nil {
			respBody, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if err == nil {
			cr.reg.Histogram("zipload.latency_us").Observe(time.Since(start).Microseconds())
			switch {
			case resp.StatusCode == http.StatusOK:
				cr.reg.Counter("zipload.bytes_in").Add(uint64(len(body)))
				cr.reg.Counter("zipload.bytes_out").Add(uint64(len(respBody)))
				if out != nil {
					*out = respBody
					if cfg.Digest {
						xorDigest(&cr.digest, respBody)
					}
				}
				return nil
			default:
				transient = resp.StatusCode >= 500
				err = fmt.Errorf("status %d: %s", resp.StatusCode, firstLine(respBody))
			}
		}
		if !transient || attempt >= cfg.Retries {
			return err
		}
		cr.reg.Counter("zipload.retries").Inc()
		backoff := cfg.RetryBase << uint(attempt)
		if cfg.RetryBase > 0 {
			backoff += time.Duration(rng.Int63n(int64(cfg.RetryBase)))
		}
		time.Sleep(backoff)
	}
}
