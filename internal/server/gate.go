package server

// The work gate (DESIGN.md §13): the one place that answers "may this
// piece of codec work run now?" for both /v1/{codec} executions and page
// store operations. It owns
//
//   - the -workers bound: at most cap(slots) pieces of work execute at
//     once, whatever the number of open connections;
//   - overload shedding: a request is refused up front with errShed
//     (503 + Retry-After) when more than limit requests already wait
//     beyond the executing ones, or when the estimated queue wait — queue
//     position over capacity times an EWMA of recent execution time —
//     exceeds the request's remaining deadline, i.e. admission would be a
//     promise the server already knows it cannot keep. Without it,
//     overload queues requests until each burns a full deadline and comes
//     back as a 504, the slowest possible way to say no;
//   - the request deadline (requestTimeout), started when work enters the
//     gate, so a cache hit (which never enters) pays for no timer;
//   - the server.gate.acquire fault point, hit once per slot acquisition;
//   - the gate-wait measurement and the server.gate.wait span.
//
// A request enters once (enter, then leave) for its whole gate
// interaction and takes a fresh slot per attempt (do), so retries hold
// one admission. The deadline and shedding are always on; only the
// queue limit is a deployment setting. Shedding is accounting plus two
// comparisons and never alters response bytes; runs that stay under
// the limit (every baseline and bench in this repo at defaults) never
// shed.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/par"
)

const (
	// DefaultQueueLimitFactor sizes the default admission queue: factor ×
	// gate capacity requests may wait beyond the ones executing. 8× keeps
	// short bursts absorbed (a queue that sheds on the first blip is
	// worse than brief queueing) while capping queue latency near
	// 8 × mean execution time.
	DefaultQueueLimitFactor = 8
	// retryAfterCapSeconds bounds the Retry-After hint: past ~30s a
	// client should re-resolve, not sleep.
	retryAfterCapSeconds = 30
)

// errShed marks a request refused by the gate's admission. The handlers
// map it to 503 + Retry-After; singleflight followers sharing a shed
// leader map it identically.
var errShed = errors.New("admission: overloaded, request shed")

type gate struct {
	slots   chan struct{}
	limit   int           // max requests waiting beyond capacity
	timeout time.Duration // request deadline, from enter: requestTimeout
	fp      *fault.Point  // server.gate.acquire; nil when injection is off
	tracer  *obs.Tracer
	reg     *obs.Registry

	// inSystem counts requests between enter and leave: executing plus
	// queued. Queue depth is max(0, inSystem - capacity).
	inSystem atomic.Int64
	// execUS is an EWMA (α = 1/8) of one execution's wall microseconds —
	// the unit the queue-wait estimate is denominated in.
	execUS atomic.Uint64

	// Admission series.
	admitted *obs.Counter
	shed     *obs.Counter
	queueG   *obs.Gauge
	burnG    *obs.Gauge
}

// newGate builds the gate: workers <= 0 means GOMAXPROCS; queueLimit
// <= 0 means DefaultQueueLimitFactor × workers.
func newGate(workers, queueLimit int, reg *obs.Registry, faults *fault.Registry,
	tracer *obs.Tracer) *gate {
	g := &gate{
		slots:    make(chan struct{}, par.Parallelism(workers)),
		limit:    queueLimit,
		timeout:  requestTimeout,
		fp:       faults.Point("server.gate.acquire"),
		tracer:   tracer,
		reg:      reg,
		admitted: reg.Counter("server.admission.admitted"),
		shed:     reg.Counter("server.admission.shed"),
		queueG:   reg.Gauge("server.admission.queue_depth"),
		burnG:    reg.Gauge("server.admission.burn_rate"),
	}
	if g.limit <= 0 {
		g.limit = DefaultQueueLimitFactor * cap(g.slots)
	}
	return g
}

// enter admits one request's gate work or sheds it with errShed. An
// admitted request gets ctx bounded by the request deadline, which
// starts here, and must call leave with the returned cancel once its
// work — queue waits, executions and retries — is over.
func (g *gate) enter(ctx context.Context) (context.Context, context.CancelFunc, error) {
	ctx, cancel := context.WithTimeout(ctx, g.timeout)
	queued := int(g.inSystem.Add(1)) - cap(g.slots)
	if queued > g.limit || queued > 0 && g.overdue(ctx, queued) {
		g.inSystem.Add(-1)
		cancel()
		g.shed.Inc()
		g.updateBurn()
		return nil, nil, errShed
	}
	g.admitted.Inc()
	g.setQueue(queued)
	g.updateBurn()
	return ctx, cancel, nil
}

// overdue reports whether a request entering the queue at depth queued
// would, by estimate, still be waiting when its deadline passes —
// admitting it only converts a fast 503 into a slow 504 while it blocks
// the queue for others.
func (g *gate) overdue(ctx context.Context, queued int) bool {
	deadline, _ := ctx.Deadline()
	est := g.estimatedWait(queued)
	return est > 0 && est > time.Until(deadline)
}

// leave ends a request's gate work begun by enter.
func (g *gate) leave(cancel context.CancelFunc) {
	g.setQueue(int(g.inSystem.Add(-1)) - cap(g.slots))
	cancel()
}

// do runs fn in one worker slot. It waits for the slot while ctx lives
// (the wait goes on the request's reqInfo and a server.gate.wait span),
// applies the server.gate.acquire fault point, then runs fn under a span
// named span, timing it into the execution EWMA. A panic in fn is
// contained as an errTransient error and a server.errors.codec_panic
// count; an injected gate panic propagates, with the slot released.
func (g *gate) do(ctx context.Context, span string, fn func(*obs.TraceSpan) error) (err error) {
	_, wsp := g.tracer.StartSpan(ctx, "server.gate.wait")
	wait, err := g.acquire(ctx)
	if ri := reqInfoFrom(ctx); ri != nil {
		ri.gateWait += wait
	}
	if err != nil {
		wsp.End()
		return err
	}
	defer func() { <-g.slots }()
	err = g.hitFault()
	wsp.End()
	if err != nil {
		return err
	}
	_, sp := g.tracer.StartSpan(ctx, span)
	defer sp.End()
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			g.reg.Counter("server.errors.codec_panic").Inc()
			err = fmt.Errorf("%w: panic in %s: %v", errTransient, span, v)
		}
		g.observeExec(time.Since(start))
	}()
	return fn(sp)
}

// acquire takes a worker slot, blocking at most while ctx lives, and
// reports how long it blocked (zero when a slot was free at once).
func (g *gate) acquire(ctx context.Context) (time.Duration, error) {
	select {
	case g.slots <- struct{}{}:
		return 0, nil
	default:
	}
	start := time.Now()
	select {
	case g.slots <- struct{}{}:
		return time.Since(start), nil
	case <-ctx.Done():
		return time.Since(start), ctx.Err()
	}
}

// hitFault applies the server.gate.acquire fault point to one slot
// acquisition: latency holds the slot, an error fails the attempt as
// transient, and a panic propagates to the request's panic recovery.
func (g *gate) hitFault() error {
	in := g.fp.Hit()
	switch in.Kind {
	case fault.KindPanic:
		panic(fmt.Sprintf("fault: injected panic at %s", in.Point))
	case fault.KindLatency:
		time.Sleep(time.Duration(in.Param) * time.Microsecond)
	case fault.KindError:
		return fmt.Errorf("%w: %v", errTransient, in.Error())
	}
	return nil
}

// estimatedWait predicts how long a request entering the queue at the
// given depth will wait: its queue position over capacity, times the
// recent mean execution time. Zero until the first execution has been
// observed (no data beats a wrong guess).
func (g *gate) estimatedWait(queued int) time.Duration {
	mean := g.execUS.Load()
	if mean == 0 {
		return 0
	}
	rounds := float64(queued)/float64(cap(g.slots)) + 1
	return time.Duration(rounds*float64(mean)) * time.Microsecond
}

// observeExec feeds one execution's wall time into the EWMA.
func (g *gate) observeExec(d time.Duration) {
	us := uint64(d.Microseconds())
	for {
		old := g.execUS.Load()
		next := us
		if old != 0 {
			next = old - old/8 + us/8
			if next == 0 {
				next = 1
			}
		}
		if g.execUS.CompareAndSwap(old, next) {
			return
		}
	}
}

// setQueue mirrors a queue depth (negative means none) into the gauge.
func (g *gate) setQueue(queued int) {
	g.queueG.Set(float64(max(queued, 0)))
}

// updateBurn mirrors the shed ratio into a burn-rate gauge on the same
// scale as the SLO burn rates: observed shed ratio divided by the
// DefaultSLOBudget error budget, so burn rate > 1 means the server is
// refusing more than its 1% budget of traffic.
func (g *gate) updateBurn() {
	shed := g.shed.Value()
	total := shed + g.admitted.Value()
	if total == 0 {
		return
	}
	g.burnG.Set(float64(shed) / float64(total) / DefaultSLOBudget)
}

// retryAfterSeconds is the Retry-After hint on a shed response: the
// estimated time for the current queue to drain (floor 1s, capped), so a
// well-behaved client's first retry lands when a slot is plausible
// rather than immediately re-joining the stampede.
func (g *gate) retryAfterSeconds() int {
	secs := int(math.Ceil(g.estimatedWait(g.queueDepth()).Seconds()))
	return min(max(secs, 1), retryAfterCapSeconds)
}

// queueDepth reports the current number of waiting requests.
func (g *gate) queueDepth() int {
	return max(int(g.inSystem.Load())-cap(g.slots), 0)
}

// healthOverload is the healthz "overload" section.
type healthOverload struct {
	State      string `json:"state"` // "ok" or "saturated"
	QueueDepth int    `json:"queue_depth"`
	QueueLimit int    `json:"queue_limit"`
	Capacity   int    `json:"capacity"`
	Admitted   uint64 `json:"admitted_total"`
	Shed       uint64 `json:"shed_total"`
	MeanExecUS uint64 `json:"mean_exec_us"`
}

// health renders the admission state for /healthz.
func (g *gate) health() healthOverload {
	h := healthOverload{
		State:      "ok",
		QueueDepth: g.queueDepth(),
		QueueLimit: g.limit,
		Capacity:   cap(g.slots),
		Admitted:   g.admitted.Value(),
		Shed:       g.shed.Value(),
		MeanExecUS: g.execUS.Load(),
	}
	if h.QueueDepth >= h.QueueLimit {
		h.State = "saturated"
	}
	return h
}
