package main

// The serve-hot and serve-cold workloads: zipserverd's handler
// (internal/server) behind a real loopback listener, driven by two client
// goroutines over two connections, first in a closed loop (rps) and then
// in an open loop at a fixed rate (latency).

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/zipchannel/zipchannel/internal/compress/codec"
	"github.com/zipchannel/zipchannel/internal/corpus"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/pagestore"
	"github.com/zipchannel/zipchannel/internal/server"
)

const (
	// serveClients is both the client goroutine and the connection count:
	// the reference host has 2 CPUs, and the server keeps its default of
	// GOMAXPROCS workers.
	serveClients = 2
	bodyCap      = 4 << 10
	zipfS        = 1.2
	// popularitySeed fixes which request kind is drawn most often. It is
	// part of the workload definition rather than of --seed, so runs with
	// different seeds measure the same mix; the seed varies the bodies and
	// the draw sequence.
	popularitySeed = 11
	// The open-loop rates are a quarter (hot) and a third (cold) of the
	// closed-loop rps measured on the reference host (2 CPUs): about 13k
	// and 0.8k. They sit below half because that host's capacity moves by
	// ±20% from second to second, and a rate near capacity turns such a
	// dip into a growing queue.
	hotOpenRate  = 3000.0
	coldOpenRate = 240.0
	// serveRoundLen is one closed-loop half and one open-loop half: the two
	// alternate so both see the same host conditions, and rps is the
	// median kept round (steadyRounds).
	serveRoundLen = time.Second
	// coldCacheBytes is far below what serve-cold writes in a run, so the
	// LRU evicts; pagePoolBytes holds about 40 of the 256 page ids, so
	// the page store writes back.
	coldCacheBytes = 256 << 10
	pagePoolBytes  = 64 << 10
	pageSize       = pagestore.DefaultPageSize
	pagesPerClient = 128
	pageShare      = 0.25
	prefixLen      = 16
	// maxPending bounds the compress replies a serve-cold client keeps for
	// their decompress round trip; older ones are checked locally.
	maxPending = 64
	// ladderTolerance is how far the bare loopback round trip plus the
	// server.request span may be from the client-observed mean latency,
	// as a share of the latter. The residual is typically 10-20%: with two
	// requests in flight on two CPUs, one request's server work delays the
	// other's client and connection goroutines, which no span covers.
	ladderTolerance = 0.4
	// codecRungMin is the least time spent per codec and operation in the
	// direct codec rung of the ladder.
	codecRungMin = 30 * time.Millisecond
)

// kind is one request kind: a corpus body through one codec and one
// operation.
type kind struct {
	codec codec.Codec
	op    string
	plain []byte // the capped corpus body
	body  []byte // serve-hot request body
	want  []byte // serve-hot expected reply, computed by calling the codec
}

type serveData struct {
	cold     bool
	plains   [][]byte // the capped corpus bodies
	kinds    []kind   // kinds[i] is drawn with Zipf rank i
	pageText []byte   // serve-cold page contents are windows of this text
}

func buildServeData(seed int64, cold bool) (*serveData, error) {
	d := &serveData{cold: cold}
	limit := bodyCap
	if cold {
		limit -= prefixLen
	}
	for _, f := range corpus.BrotliLike(seed) {
		plain := f.Data[:min(len(f.Data), limit)]
		d.plains = append(d.plains, plain)
		for _, c := range codec.All() {
			for _, op := range []string{"compress", "decompress"} {
				k := kind{codec: c, op: op, plain: plain}
				if !cold {
					comp, err := c.Compress(plain)
					if err != nil {
						return nil, fmt.Errorf("%s compress %s: %w", c.Name, f.Name, err)
					}
					k.body, k.want = plain, comp
					if op == "decompress" {
						k.body, k.want = comp, plain
					}
				}
				d.kinds = append(d.kinds, k)
			}
		}
	}
	rand.New(rand.NewSource(popularitySeed)).Shuffle(len(d.kinds), func(i, j int) {
		d.kinds[i], d.kinds[j] = d.kinds[j], d.kinds[i]
	})
	if cold {
		d.pageText = corpus.EnglishText(rand.New(rand.NewSource(seed)), 64<<10)
	}
	return d, nil
}

type request struct {
	method, path string
	body         []byte
	want         []byte // expected reply; nil for a serve-cold compress
}

// pending is a serve-cold compress reply awaiting its check: a later
// decompress request through the server, or a local decompress.
type pending struct {
	codec       codec.Codec
	comp, plain []byte
}

type op struct {
	reqs []request
	// roundTrip is set for a serve-cold compress: its reply must
	// decompress to roundTrip.plain.
	roundTrip *pending
}

// gen is one client's request sequence. The sequence is a pure function
// of the seed and the client index, given correct replies.
type gen struct {
	d       *serveData
	client  int
	rng     *rand.Rand
	zipf    *rand.Zipf
	seq     uint64
	pending []pending
}

func newGen(d *serveData, seed int64, client int) *gen {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	return &gen{d: d, client: client, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(len(d.kinds)-1))}
}

func (g *gen) next() op {
	g.seq++
	if g.d.cold && g.rng.Float64() < pageShare {
		path := fmt.Sprintf("/v1/pages/c%d-%d", g.client, g.rng.Intn(pagesPerClient))
		page := g.page()
		return op{reqs: []request{{method: http.MethodPut, path: path, body: page}, {method: http.MethodGet, path: path, want: page}}}
	}
	k := &g.d.kinds[g.zipf.Uint64()]
	if !g.d.cold {
		return op{reqs: []request{{method: http.MethodPost, path: "/v1/" + k.codec.Name + "/" + k.op, body: k.body, want: k.want}}}
	}
	if k.op == "decompress" && len(g.pending) > 0 {
		p := g.pending[0]
		g.pending = g.pending[1:]
		return op{reqs: []request{{method: http.MethodPost, path: "/v1/" + p.codec.Name + "/decompress", body: p.comp, want: p.plain}}}
	}
	body := make([]byte, prefixLen+len(k.plain))
	g.stampUnique(body)
	copy(body[prefixLen:], k.plain)
	return op{
		reqs:      []request{{method: http.MethodPost, path: "/v1/" + k.codec.Name + "/compress", body: body}},
		roundTrip: &pending{codec: k.codec, plain: body},
	}
}

// stampUnique writes a seeded prefix that no other request of the run
// carries: 8 random bytes, then the client index and sequence number.
func (g *gen) stampUnique(b []byte) {
	binary.BigEndian.PutUint64(b[0:8], g.rng.Uint64())
	binary.BigEndian.PutUint64(b[8:16], uint64(g.client)<<56|g.seq)
}

func (g *gen) page() []byte {
	p := make([]byte, pageSize)
	off := g.rng.Intn(len(g.d.pageText) - pageSize)
	copy(p, g.d.pageText[off:off+pageSize])
	g.stampUnique(p)
	return p
}

// push queues a compress reply for its round trip, checking the oldest
// locally once the queue is full.
func (g *gen) push(p pending, t *tally) {
	if len(g.pending) >= maxPending {
		checkLocal(g.pending[0], t)
		g.pending = g.pending[1:]
	}
	g.pending = append(g.pending, p)
}

// flush checks every queued compress reply locally.
func (g *gen) flush(t *tally) {
	for _, p := range g.pending {
		checkLocal(p, t)
	}
	g.pending = nil
}

func checkLocal(p pending, t *tally) {
	got, err := p.codec.Decompress(p.comp)
	eq, total := bitsEqual(p.plain, got)
	t.bitsOK += eq
	t.bitsTotal += total
	if err != nil || eq != total {
		t.failed++
	}
}

// client is one client goroutine's connection to one server.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClients(base string) []*client {
	cs := make([]*client, serveClients)
	for i := range cs {
		cs[i] = &client{base: base, hc: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				Proxy:               nil,
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// do sends one request. The reply aliases the client's buffer until the
// next call.
func (c *client) do(method, path string, body []byte, hdr http.Header) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, resp.StatusCode, err
	}
	return c.buf.Bytes(), resp.StatusCode, nil
}

// shape is one request's size, replayed against the bare listener.
type shape struct {
	method    string
	in, reply int
}

// tally accumulates one phase of one or more clients.
type tally struct {
	ops, failed, reqs int
	bytesIn           int64
	bitsOK, bitsTotal int64
	lat, late         []float64 // open loop, per op: ms from the due time; ms the send was late
	reqUS             []float64 // per request round trip, when recording
	shapes            []shape   // when recording
	digest            hash.Hash // replies in order, when set
}

func (t *tally) add(o *tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.reqs += o.reqs
	t.bytesIn += o.bytesIn
	t.bitsOK += o.bitsOK
	t.bitsTotal += o.bitsTotal
	t.lat = append(t.lat, o.lat...)
	t.late = append(t.late, o.late...)
	t.reqUS = append(t.reqUS, o.reqUS...)
	t.shapes = append(t.shapes, o.shapes...)
}

// runOp sends the generator's next operation and checks every reply.
func runOp(g *gen, c *client, t *tally, record bool) {
	o := g.next()
	ok := true
	for _, r := range o.reqs {
		t0 := time.Now()
		reply, status, err := c.do(r.method, r.path, r.body, nil)
		if record {
			t.reqUS = append(t.reqUS, float64(time.Since(t0).Nanoseconds())/1e3)
			t.shapes = append(t.shapes, shape{method: r.method, in: len(r.body), reply: len(reply)})
		}
		t.reqs++
		if t.digest != nil {
			fmt.Fprintf(t.digest, "%s %s %d %d\n", r.method, r.path, status, len(reply))
			t.digest.Write(reply)
		}
		if err != nil || status != http.StatusOK {
			t.bitsTotal += int64(8 * len(r.want))
			ok = false
			break
		}
		t.bytesIn += int64(len(r.body))
		if r.want != nil {
			eq, total := bitsEqual(r.want, reply)
			t.bitsOK += eq
			t.bitsTotal += total
			ok = ok && eq == total
		}
		if o.roundTrip != nil {
			p := *o.roundTrip
			p.comp = bytes.Clone(reply)
			g.push(p, t)
		}
	}
	t.ops++
	if !ok {
		t.failed++
	}
}

// closedLoop runs every client back to back for dur: each sends its next
// operation only after the previous reply arrived.
func closedLoop(gens []*gen, cs []*client, dur time.Duration, record bool) (tally, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	parts := make([]tally, len(cs))
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				runOp(gens[i], cs[i], &parts[i], record)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var t tally
	for i := range parts {
		t.add(&parts[i])
	}
	return t, elapsed
}

// openLoop sends operations on a fixed schedule of rate per second for
// dur, whatever the replies do. Each operation is timed from the moment
// it was due, so a stall counts against the operations queued behind it.
// A run that falls behind by more than 2×dur stops and counts every
// operation it did not send as failed.
func openLoop(gens []*gen, cs []*client, dur time.Duration, rate float64) tally {
	n := int64(dur.Seconds() * rate)
	period := float64(time.Second) / rate
	start := time.Now()
	cutoff := start.Add(3 * dur)
	var next atomic.Int64
	parts := make([]tally, len(cs))
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := &parts[i]
			for {
				k := next.Add(1) - 1
				if k >= n {
					return
				}
				if time.Now().After(cutoff) {
					t.ops++
					t.failed++
					continue
				}
				due := start.Add(time.Duration(float64(k) * period))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				t.late = append(t.late, ms(time.Since(due)))
				runOp(gens[i], cs[i], t, false)
				t.lat = append(t.lat, ms(time.Since(due)))
			}
		}(i)
	}
	wg.Wait()
	var t tally
	for i := range parts {
		t.add(&parts[i])
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// listener is an http.Server on a loopback port.
type listener struct {
	hs   *http.Server
	base string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // always ErrServerClosed after close
	}()
	return l, nil
}

func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.hs.Shutdown(ctx); err != nil {
		l.hs.Close()
	}
	<-l.done
}

// rig is one zipserverd instance with its clients.
type rig struct {
	*listener
	reg     *obs.Registry
	clients []*client
}

func startRig(seed int64, cold, traced bool) (*rig, error) {
	reg := obs.NewRegistry()
	cfg := server.Config{Registry: reg}
	if traced {
		cfg.Tracer = obs.NewTracer(reg, seed)
	}
	if cold {
		cfg.CacheBytes = coldCacheBytes
		cfg.PageStore = pagestore.New(pagestore.Config{PageSize: pageSize, PoolBytes: pagePoolBytes, Obs: reg})
	}
	l, err := listen(server.New(cfg))
	if err != nil {
		return nil, err
	}
	return &rig{listener: l, reg: reg, clients: newClients(l.base)}, nil
}

func (r *rig) close() {
	closeClients(r.clients)
	r.listener.close()
}

// counters reads the server's /metrics snapshot.
func (r *rig) counters() (map[string]uint64, error) {
	b, status, err := r.clients[0].do(http.MethodGet, "/metrics", nil, nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	var s obs.Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	return s.Counters, nil
}

// warm fills the rig before timing: serve-hot sends every request kind
// once, so later requests hit the cache; serve-cold stores every page id
// once, so the pool is full, and runs a few codec operations. Clients
// run one after the other, so the sequence stays a function of the seed.
func (r *rig) warm(d *serveData, gens []*gen) error {
	var t tally
	if !d.cold {
		for _, k := range d.kinds {
			reply, status, err := r.clients[0].do(http.MethodPost, "/v1/"+k.codec.Name+"/"+k.op, k.body, nil)
			if err != nil || status != http.StatusOK || !bytes.Equal(reply, k.want) {
				return fmt.Errorf("warm-up %s %s: status %d, err %v, reply differs %v",
					k.codec.Name, k.op, status, err, !bytes.Equal(reply, k.want))
			}
		}
		return nil
	}
	for i, g := range gens {
		for p := 0; p < pagesPerClient; p++ {
			path := fmt.Sprintf("/v1/pages/c%d-%d", i, p)
			if _, status, err := r.clients[i].do(http.MethodPut, path, g.page(), nil); err != nil || status != http.StatusOK {
				return fmt.Errorf("warm-up PUT %s: status %d: %v", path, status, err)
			}
		}
		for k := 0; k < 16; k++ {
			runOp(g, r.clients[i], &t, false)
		}
	}
	if t.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d operations failed", t.failed, t.ops)
	}
	return nil
}

type serveInst struct {
	d      *serveData
	gens   []*gen
	main   *rig // untraced
	traced *rig // --trace 1 only, with a server.Config.Tracer
	bare   *listener
	// bareClients talk to bare.
	bareClients []*client
}

func setupServe(seed int64, cold, trace bool) (instance, error) {
	d, err := buildServeData(seed, cold)
	if err != nil {
		return nil, err
	}
	s := &serveInst{d: d}
	for i := 0; i < serveClients; i++ {
		s.gens = append(s.gens, newGen(d, seed, i))
	}
	if s.main, err = startRig(seed, cold, false); err != nil {
		return nil, err
	}
	if err := s.main.warm(d, s.gens); err != nil {
		s.close()
		return nil, err
	}
	if trace {
		if s.traced, err = startRig(seed, cold, true); err != nil {
			s.close()
			return nil, err
		}
		if err := s.traced.warm(d, s.gens); err != nil {
			s.close()
			return nil, err
		}
		if s.bare, err = listen(http.HandlerFunc(bareHandler)); err != nil {
			s.close()
			return nil, err
		}
		s.bareClients = newClients(s.bare.base)
	}
	return s, nil
}

func (s *serveInst) close() {
	for _, r := range []*rig{s.main, s.traced} {
		if r != nil {
			r.close()
		}
	}
	if s.bare != nil {
		closeClients(s.bareClients)
		s.bare.close()
	}
}

func (s *serveInst) rate() float64 {
	if s.d.cold {
		return coldOpenRate
	}
	return hotOpenRate
}

func (s *serveInst) flush(t *tally) {
	for _, g := range s.gens {
		g.flush(t)
	}
}

// serveRound is one round of the end-to-end measurement.
type serveRound struct {
	closed, open tally
	elapsed      float64 // seconds of the closed loop
}

func (s *serveInst) measure(o opts) (*outcome, error) {
	var rounds []serveRound
	per := serveRoundLen / 2
	kept, steal := steadyRounds(o.dur, func() {
		c, elapsed := closedLoop(s.gens, s.main.clients, per, false)
		rounds = append(rounds, serveRound{closed: c, open: openLoop(s.gens, s.main.clients, per, s.rate()), elapsed: elapsed.Seconds()})
	})
	oc := newOutcome()
	var all tally
	for i := range rounds {
		all.add(&rounds[i].closed)
		all.add(&rounds[i].open)
	}
	s.flush(&all)
	oc.attempted, oc.failed = all.ops, all.failed
	var rps, kibs, lat []float64
	for _, i := range kept {
		r := &rounds[i]
		rps = append(rps, float64(r.closed.ops-r.closed.failed)/r.elapsed)
		kibs = append(kibs, float64(r.closed.bytesIn)/1024/r.elapsed)
		lat = append(lat, r.open.lat...)
	}
	oc.values["rps"] = median(rps)
	oc.values["kib_s"] = median(kibs)
	oc.values["p50_ms"] = quantile(lat, 0.50)
	oc.values["bit_acc"] = ratio(float64(all.bitsOK), float64(all.bitsTotal))
	oc.steal = steal
	oc.samples["rounds_run"] = len(rounds)
	oc.samples["rounds_kept"] = len(kept)
	oc.samples["latency_samples"] = len(lat)
	return oc, nil
}

// Span names the server records under server.Config.Tracer; every child
// of server.request is listed, so the request's self time is its span
// minus these.
var childSpans = []string{
	"server.cache.lookup", "server.breaker.check", "server.gate.wait",
	"server.codec.run", "server.cache.store", "server.pages.run",
}

// ladderRounds is how many times the serve ladder alternates its
// untraced, traced and bare phases, so they see the same host conditions.
const ladderRounds = 4

// ladder measures the per-layer metrics. Each of ladderRounds rounds runs
// a closed loop on the untraced server (the allocation and
// tracing-overhead baseline), a closed loop on the traced server (span
// self times and counters), and a replay of the traced request shapes
// against a bare loopback handler (the HTTP cost alone). An open loop
// (generator lateness) and the direct codec rung follow.
func (s *serveInst) ladder(o opts) (*outcome, error) {
	oc := newOutcome()
	v := oc.values
	var all, base, tr tally
	var baseSec, trSec float64
	var mem memDelta
	var bareRT []float64

	wall0 := s.traced.reg.WallTotals()
	c0, err := s.traced.counters()
	if err != nil {
		return nil, err
	}
	for r := 0; r < ladderRounds; r++ {
		m0 := memNow()
		b, el := closedLoop(s.gens, s.main.clients, o.dur*3/(10*ladderRounds), false)
		mem = mem.plus(memNow().since(m0))
		base.add(&b)
		baseSec += el.Seconds()
		t, el := closedLoop(s.gens, s.traced.clients, o.dur*4/(10*ladderRounds), true)
		tr.add(&t)
		trSec += el.Seconds()
		bareRT = append(bareRT, replayBare(s.bareClients, t.shapes, o.dur/(10*ladderRounds))...)
	}
	wall1 := s.traced.reg.WallTotals()
	c1, err := s.traced.counters()
	if err != nil {
		return nil, err
	}
	all.add(&base)
	all.add(&tr)
	open := openLoop(s.gens, s.main.clients, o.dur*2/10, s.rate())
	all.add(&open)
	s.flush(&all)
	bareUS := mean(bareRT)

	dW := func(name string) float64 { return float64(wall1[name] - wall0[name]) }
	dC := func(name string) float64 { return float64(c1[name] - c0[name]) }
	spanUS := func(name string) float64 { return ratio(dW(name), dC(name+".calls")) / 1e3 }
	nReq := dC("server.request.calls")
	children := 0.0
	for _, c := range childSpans {
		children += dW(c)
	}
	reqUS := spanUS("server.request")
	clientUS := mean(tr.reqUS)
	v["server.request.self_us"] = ratio(dW("server.request")-children, nReq) / 1e3
	v["loopback.self_us"] = clientUS - reqUS
	v["loopback.bare_us"] = bareUS
	v["server.cache.lookup_us"] = spanUS("server.cache.lookup")
	v["server.cache.store_us"] = spanUS("server.cache.store")
	v["server.gate.wait_us"] = spanUS("server.gate.wait")
	v["server.codec.run_us"] = spanUS("server.codec.run")
	v["server.pages.run_us"] = spanUS("server.pages.run")
	v["server.cache.hit_ratio"] = ratio(dC("server.cache.hits"), dC("server.cache.hits")+dC("server.cache.misses"))
	perKop := func(name string) float64 { return 1000 * ratio(dC(name), float64(tr.ops)) }
	v["server.cache.evictions"] = perKop("server.cache.evictions")
	v["server.flight.shared"] = perKop("server.flight.shared")
	v["server.admission.shed"] = perKop("server.admission.shed")
	v["pagestore.writebacks"] = perKop("pagestore.writebacks")
	v["pagestore.store_steps_per_op"] = ratio(dC("pagestore.store_steps"), dC("pagestore.stores"))
	v["server.alloc_b_per_req"] = ratio(float64(mem.bytes), float64(base.reqs))
	v["server.gc_per_kreq"] = 1000 * ratio(float64(mem.gcs), float64(base.reqs))
	v["trace.overhead_pct"] = 100 * (ratio(float64(base.ops)/baseSec, float64(tr.ops)/trSec) - 1)
	v["gen.late_ms"] = mean(open.late)
	v["p99_ms"] = quantile(open.lat, tailQ(len(open.lat)))

	residual := ratio(clientUS-(bareUS+reqUS), clientUS)
	v["ladder.residual_pct"] = 100 * math.Abs(residual)
	if math.Abs(residual) > ladderTolerance {
		oc.problems = append(oc.problems, fmt.Sprintf(
			"ladder does not reconcile: client mean %.1fus vs bare loopback %.1fus + server.request %.1fus (tolerance %.0f%%)",
			clientUS, bareUS, reqUS, 100*ladderTolerance))
	}
	if int(nReq) != tr.reqs {
		oc.problems = append(oc.problems, fmt.Sprintf("traced server saw %d requests, clients sent %d", int(nReq), tr.reqs))
	}
	if err := s.codecRung(v); err != nil {
		oc.problems = append(oc.problems, err.Error())
	}

	oc.attempted, oc.failed = all.ops, all.failed
	oc.samples["baseline_ops"] = base.ops
	oc.samples["traced_requests"] = tr.reqs
	oc.samples["open_ops"] = open.ops
	return oc, nil
}

// codecRung runs the workload's bodies through each codec directly, with
// no server in between, and checks that every body round-trips.
func (s *serveInst) codecRung(v map[string]float64) error {
	plains := s.d.plains
	if s.d.cold {
		plains = nil
		for _, p := range s.d.plains {
			plains = append(plains, append(make([]byte, prefixLen), p...))
		}
	}
	for _, c := range codec.All() {
		comps := make([][]byte, len(plains))
		timeRung := func(f func(i int) error) (float64, error) {
			calls := 0
			start := time.Now()
			for calls == 0 || time.Since(start) < codecRungMin {
				for i := range plains {
					if err := f(i); err != nil {
						return 0, err
					}
				}
				calls += len(plains)
			}
			return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(calls), nil
		}
		us, err := timeRung(func(i int) (err error) {
			comps[i], err = c.Compress(plains[i])
			return err
		})
		if err != nil {
			return fmt.Errorf("codec rung %s compress: %w", c.Name, err)
		}
		v["codec."+c.Name+".compress_us"] = us
		us, err = timeRung(func(i int) error {
			back, err := c.Decompress(comps[i])
			if err == nil && !bytes.Equal(back, plains[i]) {
				err = fmt.Errorf("body %d does not round-trip", i)
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("codec rung %s decompress: %w", c.Name, err)
		}
		v["codec."+c.Name+".decompress_us"] = us
	}
	return nil
}

// bareHandler is the loopback rung: it reads the request body and sends
// back as many bytes as X-Reply-Len asks for, with no work in between.
func bareHandler(w http.ResponseWriter, r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body) // a failed read fails the client's request
	n, _ := strconv.Atoi(r.Header.Get("X-Reply-Len"))
	n = max(0, min(n, len(zeros)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(n))
	_, _ = w.Write(zeros[:n])
}

var zeros = make([]byte, 64<<10)

// replayBare sends the recorded request shapes to the bare listener from
// each client for dur and returns every round trip in µs.
func replayBare(cs []*client, shapes []shape, dur time.Duration) []float64 {
	if len(shapes) == 0 {
		return nil
	}
	deadline := time.Now().Add(dur)
	var next atomic.Int64
	rts := make([][]float64, len(cs))
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				sh := shapes[int(next.Add(1)-1)%len(shapes)]
				var body []byte
				if sh.method != http.MethodGet {
					body = zeros[:min(sh.in, len(zeros))]
				}
				hdr := http.Header{"X-Reply-Len": {strconv.Itoa(sh.reply)}}
				t0 := time.Now()
				if _, _, err := cs[i].do(sh.method, "/", body, hdr); err != nil {
					continue
				}
				rts[i] = append(rts[i], float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}(i)
	}
	wg.Wait()
	var all []float64
	for _, r := range rts {
		all = append(all, r...)
	}
	return all
}
