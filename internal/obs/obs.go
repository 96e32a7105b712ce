// Package obs is the repository's unified attack-telemetry layer: a
// zero-dependency, concurrency-safe registry of counters, gauges, and
// log-bucketed histograms, plus span timers with a simulation-clock /
// wall-clock dual, an NDJSON structured-event trace sink, and a periodic
// progress reporter.
//
// The design constraints come from the attacks themselves (see ISSUE 1):
//
//   - No globals. A *Registry is created by whoever owns a run (a CLI, an
//     experiment, a test) and passed down explicitly; modules hang their
//     instruments off it at construction/attach time.
//   - Deterministic snapshots. Under a fixed seed, two runs of the same
//     attack must produce byte-identical Snapshot JSON, so everything a
//     Snapshot contains derives from simulation state only: counters,
//     gauges, and histograms over simulated quantities. Wall-clock data
//     (span durations, traces/sec) is kept out of snapshots — it is
//     available via WallTotals and the trace sink instead.
//   - Nil-safety everywhere. A nil *Registry hands out nil instruments,
//     and every instrument method is a no-op on a nil receiver, so
//     instrumented hot paths need no conditionals.
//   - Cheap hot paths. Instruments are resolved once (by name, under a
//     read-mostly registry lock) and then updated with single atomic
//     operations. Hot writers additionally take a padded per-owner shard
//     of their counter (Counter.Shard), so concurrent simulation tasks
//     increment disjoint cache lines instead of bouncing one; Value
//     remains exact at every instant (DESIGN.md §7). Writers confined
//     to one goroutine count in plain fields (LocalHistogram for
//     histograms) and publish the deltas at points they choose.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry owns a namespace of metrics and the run's trace sink. All
// methods are safe for concurrent use; instruments with the same name are
// shared (two modules asking for "cache.hits" get the same counter).
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	wall     map[string]*Counter // cumulative wall ns per span, not snapshotted
	simClock func() uint64
	sink     *TraceSink
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		wall:     map[string]*Counter{},
	}
}

// Counter returns (creating if needed) the named counter. Returns nil —
// a valid no-op instrument — when r is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok = r.counters[name]
	if !ok {
		c = NewCounter()
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge; nil registry gives
// a no-op instrument.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok = r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram; nil
// registry gives a no-op instrument.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok = r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// SetSimClock installs the simulation clock spans and trace events stamp
// their "sim" field with (e.g. the victim VM's retired-instruction
// count, or the cache's access clock). The function must be cheap and is
// called outside the registry lock.
func (r *Registry) SetSimClock(fn func() uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.simClock = fn
	r.mu.Unlock()
}

// SimNow reads the installed simulation clock (0 when none is set).
func (r *Registry) SimNow() uint64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	fn := r.simClock
	r.mu.RUnlock()
	if fn == nil {
		return 0
	}
	return fn()
}

// SetTraceSink routes structured events (Emit, span ends) to s; nil
// detaches.
func (r *Registry) SetTraceSink(s *TraceSink) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = s
	r.mu.Unlock()
}

func (r *Registry) traceSink() *TraceSink {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	s := r.sink
	r.mu.RUnlock()
	return s
}

// Emit writes one structured event to the trace sink, stamped with the
// sim clock. A nil registry or absent sink drops the event.
func (r *Registry) Emit(event string, fields map[string]any) {
	s := r.traceSink()
	if s == nil {
		return
	}
	s.Emit(event, r.SimNow(), fields)
}

// wallCounter returns the hidden wall-time accumulator for a span name.
func (r *Registry) wallCounter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.wall[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok = r.wall[name]
	if !ok {
		c = NewCounter()
		r.wall[name] = c
	}
	return c
}

// WallTotals returns cumulative wall-clock nanoseconds per span name.
// Wall time is deliberately excluded from Snapshot (it would break
// byte-identical snapshots under a fixed seed); this accessor serves
// progress lines and human diagnostics.
func (r *Registry) WallTotals() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]uint64, len(r.wall))
	for k, c := range r.wall {
		out[k] = c.Value()
	}
	return out
}

// DeclareCounters registers the named counters at zero without touching
// them. Servers call this at startup so every operational counter is
// present (at 0) from the very first scrape, instead of popping into
// existence when its first event happens — a scraper computing rates
// needs the zero point. Nil-safe.
func (r *Registry) DeclareCounters(names ...string) {
	for _, n := range names {
		r.Counter(n)
	}
}

// DeclareGauges registers the named gauges at zero (see DeclareCounters).
func (r *Registry) DeclareGauges(names ...string) {
	for _, n := range names {
		r.Gauge(n)
	}
}

// DeclareHistograms registers the named histograms empty (see
// DeclareCounters).
func (r *Registry) DeclareHistograms(names ...string) {
	for _, n := range names {
		r.Histogram(n)
	}
}

// CounterNames returns the sorted names of all registered counters.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters))
	for k := range r.counters {
		names = append(names, k)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// numCounterShards is the size of a counter's padded shard array. Owners
// round-robin over the slots, so up to this many concurrent writers
// increment disjoint cache lines.
const numCounterShards = 8

// CounterShard is one padded increment slot of a sharded Counter (see
// Counter.Shard). It has the same nil-safe Inc/Add surface as Counter, so
// a hot path can hold either.
type CounterShard struct {
	v atomic.Uint64
	_ [56]byte // pad to a full cache line: neighbours never false-share
}

// Inc adds one.
func (s *CounterShard) Inc() {
	if s != nil {
		s.v.Add(1)
	}
}

// Add adds n.
func (s *CounterShard) Add(n uint64) {
	if s != nil {
		s.v.Add(n)
	}
}

// Counter is a monotonically increasing uint64. The zero value is ready
// to use; all methods are no-ops on a nil receiver.
//
// Inc/Add on the counter itself hit a single shared atomic — fine for
// occasional events. Per-step writers (the VM) call Shard once at
// attach time and increment their private slot instead; Value sums the
// base and every slot, so reads stay exact at any moment (a mid-run
// -progress snapshot sees every completed add). Writers confined to one
// goroutine (the cache model, Prime+Probe) count in plain fields and
// Add their deltas when they publish.
type Counter struct {
	v      atomic.Uint64
	next   atomic.Uint32
	shards atomic.Pointer[[numCounterShards]CounterShard]
}

// NewCounter creates a standalone counter (not attached to a registry).
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Shard returns a padded private increment slot for one hot writer.
// Slots are assigned round-robin and may be reused by later owners; a
// shared slot is still a single atomic add. Returns nil (a valid no-op
// instrument) on a nil counter.
func (c *Counter) Shard() *CounterShard {
	if c == nil {
		return nil
	}
	arr := c.shards.Load()
	if arr == nil {
		fresh := new([numCounterShards]CounterShard)
		if c.shards.CompareAndSwap(nil, fresh) {
			arr = fresh
		} else {
			arr = c.shards.Load()
		}
	}
	return &arr[(c.next.Add(1)-1)%numCounterShards]
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	total := c.v.Load()
	if arr := c.shards.Load(); arr != nil {
		for i := range arr {
			total += arr[i].v.Load()
		}
	}
	return total
}

// Gauge is a settable float64. The zero value is ready to use; methods
// are no-ops on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add atomically adds d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}
