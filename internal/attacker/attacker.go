// Package attacker implements the two classic cache attack primitives the
// paper builds on: Prime+Probe (Osvik et al.) against the simulated LLC,
// with eviction-set construction over an attacker-owned physical buffer
// and latency-threshold calibration, and Flush+Reload (Yarom & Falkner)
// against shared lines.
package attacker

import (
	"errors"
	"fmt"
	"sort"

	"github.com/zipchannel/zipchannel/internal/cache"
	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
)

// ErrNoEvictionSet reports that the attacker's buffer has too few lines
// mapping to the requested cache set.
var ErrNoEvictionSet = errors.New("attacker: cannot build eviction set")

// DefaultTimerSamples is how many readings measure takes of each probed
// line's latency when a noisy timer is armed. k=9 survives up to four
// jittered readings per line.
const DefaultTimerSamples = 9

// PrimeProbe drives the prime/probe cycle for one attacker actor.
type PrimeProbe struct {
	c     *cache.Cache
	actor int

	poolBase  uint64
	poolLines int

	threshold int
	// evsets memoizes, per global set, the pool's lowest lines mapping
	// to it, as many as the largest eviction set requested so far. The
	// sets are carved from arena, so memoizing one rarely allocates.
	evsets [][]uint64
	arena  []uint64

	// TimerFault, when armed (chaos runs), jitters individual timer
	// readings of probe latencies; TimerSamples readings are taken per
	// line and classified by their median (see measure). Nil or disarmed
	// leaves every measurement byte-identical to a fault-free build.
	TimerFault   *fault.Point
	TimerSamples int

	// The round counts and probe latencies are kept in plain fields (one
	// goroutine drives a PrimeProbe) until Publish adds them to the
	// instruments below.
	n       roundCounts
	latency obs.LocalHistogram

	// Instruments are nil until AttachObs; obs methods no-op on nil.
	primes       *obs.Counter
	probes       *obs.Counter
	probedLines  *obs.Counter
	evictionsObs *obs.Counter
	evsetFail    *obs.Counter
	probeLat     *obs.Histogram
	// reg backs the lazily-registered noisy-read counter so runs without
	// timer faults keep their metric snapshots unchanged.
	reg        *obs.Registry
	noisyReads *obs.Counter
}

// roundCounts are the Prime+Probe counts not yet published.
type roundCounts struct{ primes, probes, probedLines, evictions uint64 }

// AttachObs registers the attacker's telemetry on reg: pp.primes and
// pp.probes (rounds), pp.probed_lines, pp.evictions_observed (lines over
// threshold), pp.evset_failures, and the pp.probe_latency histogram.
// All but pp.evset_failures fill when the owner calls Publish.
func (p *PrimeProbe) AttachObs(reg *obs.Registry) {
	p.primes = reg.Counter("pp.primes")
	p.probes = reg.Counter("pp.probes")
	p.probedLines = reg.Counter("pp.probed_lines")
	p.evictionsObs = reg.Counter("pp.evictions_observed")
	p.evsetFail = reg.Counter("pp.evset_failures")
	p.probeLat = reg.Histogram("pp.probe_latency")
	p.reg = reg
}

// Publish adds the rounds, probed lines, observed evictions and probe
// latencies since the last Publish to the registry. Owners call it at
// points where a reader of the registry should see current counts, and
// before they return.
func (p *PrimeProbe) Publish() {
	p.primes.Add(p.n.primes)
	p.probes.Add(p.n.probes)
	p.probedLines.Add(p.n.probedLines)
	p.evictionsObs.Add(p.n.evictions)
	p.n = roundCounts{}
	p.latency.PublishTo(p.probeLat)
}

// measure returns the classified latency of one probed line. A probe is
// destructive — reading a line's latency refills it — so a noisy timer
// cannot be beaten by re-probing. Instead, when TimerFault is armed, the
// single architectural latency is read TimerSamples times through the
// fault-injected timer and the median of the readings is returned
// (FilteredReading): with per-reading jitter probability q, a line is
// misread only when a majority of its readings jitter past the threshold
// (~C(k,⌈k/2⌉)·q^⌈k/2⌉), the repeated-measurement amplification of
// Schwarzl et al.'s remote timing attacks. With no timer fault this is
// exactly one clean probe.
func (p *PrimeProbe) measure(addr uint64) int {
	lat := p.c.Probe(p.actor, addr)
	val, noisy := FilteredReading(lat, p.TimerSamples, p.TimerFault)
	if noisy > 0 && p.reg != nil {
		if p.noisyReads == nil {
			p.noisyReads = p.reg.Counter("pp.noisy_reads")
		}
		p.noisyReads.Add(uint64(noisy))
	}
	return val
}

// NewPrimeProbe creates the attacker with a contiguous physical buffer of
// poolBytes at poolBase (its "own data" in the paper's step 1). Buffer
// lines are indexed lazily into per-set eviction candidates.
func NewPrimeProbe(c *cache.Cache, actor int, poolBase, poolBytes uint64) *PrimeProbe {
	cfg := c.Config()
	return &PrimeProbe{
		c:         c,
		actor:     actor,
		poolBase:  poolBase,
		poolLines: int(poolBytes / uint64(cfg.LineSize)),
		evsets:    make([][]uint64, cfg.Slices*cfg.Sets),
	}
}

// Calibrate measures hit and miss latencies over the attacker's own lines
// and fixes the threshold between them. Returns the threshold.
func (p *PrimeProbe) Calibrate(samples int) int {
	if samples <= 0 {
		samples = 64
	}
	addr := p.poolBase
	var hits, misses []int
	for i := 0; i < samples; i++ {
		p.c.Flush(addr)
		misses = append(misses, p.c.Probe(p.actor, addr))
		hits = append(hits, p.c.Probe(p.actor, addr))
	}
	sort.Ints(hits)
	sort.Ints(misses)
	// Midpoint between the hit distribution's high tail and the miss
	// distribution's low tail.
	hiHit := hits[len(hits)*9/10]
	loMiss := misses[len(misses)/10]
	p.threshold = (hiHit + loMiss) / 2
	return p.threshold
}

// Threshold returns the calibrated hit/miss boundary.
func (p *PrimeProbe) Threshold() int { return p.threshold }

// EvictionSet returns `ways` attacker line addresses mapping to the given
// global set: the pool's lowest such lines, in ascending order.
func (p *PrimeProbe) EvictionSet(globalSet, ways int) ([]uint64, error) {
	var lines []uint64
	if globalSet >= 0 && globalSet < len(p.evsets) {
		if lines = p.evsets[globalSet]; len(lines) < ways {
			lines = p.scanSet(globalSet, ways)
			p.evsets[globalSet] = lines
		}
	}
	if len(lines) < ways {
		p.evsetFail.Inc()
		return nil, fmt.Errorf("%w: set %d has %d/%d candidate lines",
			ErrNoEvictionSet, globalSet, len(lines), ways)
	}
	return lines[:ways], nil
}

// scanSet collects up to limit pool lines of a global set, lowest first.
// Only every Sets-th pool line shares the set's index within a slice,
// so the scan strides over those and keeps the ones the slice hash
// sends to the set's slice.
func (p *PrimeProbe) scanSet(globalSet, limit int) []uint64 {
	cfg := p.c.Config()
	slice, set := globalSet/cfg.Sets, globalSet%cfg.Sets
	// Pool line i has line address LineOf(poolBase)+i.
	first := (set - int(p.c.LineOf(p.poolBase)%uint64(cfg.Sets)) + cfg.Sets) % cfg.Sets
	if len(p.arena) < limit {
		p.arena = make([]uint64, max(limit, 1024))
	}
	lines := p.arena[:0:limit]
	p.arena = p.arena[limit:]
	for i := first; i < p.poolLines && len(lines) < limit; i += cfg.Sets {
		addr := p.poolBase + uint64(i*cfg.LineSize)
		if p.c.SliceOf(addr) == slice {
			lines = append(lines, addr)
		}
	}
	return lines
}

// Prime loads the eviction set into the cache (attack step 1).
func (p *PrimeProbe) Prime(ev []uint64) {
	p.n.primes++
	for _, a := range ev {
		p.c.Access(p.actor, a)
	}
	// Second pass in reverse defeats self-eviction under LRU-like
	// policies, a standard prime refinement.
	for i := len(ev) - 1; i >= 0; i-- {
		p.c.Access(p.actor, ev[i])
	}
}

// Probe measures the eviction set and returns the number of lines whose
// latency exceeded the threshold, i.e. were evicted by the victim (attack
// step 3). The latencies themselves go to the pp.probe_latency histogram.
func (p *PrimeProbe) Probe(ev []uint64) (evicted int) {
	if p.threshold == 0 {
		p.Calibrate(0)
	}
	p.n.probes++
	for _, a := range ev {
		lat := p.measure(a)
		p.latency.Observe(int64(lat))
		if lat > p.threshold {
			evicted++
		}
	}
	p.n.probedLines += uint64(len(ev))
	p.n.evictions += uint64(evicted)
	return evicted
}

// ProbeSets primes-then-probes each of the given global sets around a call
// to victim (typically one single-stepped victim access) and returns the
// set indices that saw evictions.
func (p *PrimeProbe) ProbeSets(sets []int, ways int, victim func()) ([]int, error) {
	evs := make([][]uint64, len(sets))
	for i, s := range sets {
		ev, err := p.EvictionSet(s, ways)
		if err != nil {
			return nil, err
		}
		evs[i] = ev
		p.Prime(ev)
	}
	victim()
	var hot []int
	for i, ev := range evs {
		if p.Probe(ev) > 0 {
			hot = append(hot, sets[i])
		}
	}
	return hot, nil
}

// FlushReload drives the flush/reload cycle against lines the attacker
// shares with the victim (a shared library's code pages, §VI).
type FlushReload struct {
	c         *cache.Cache
	actor     int
	threshold int

	flushes  *obs.Counter
	reloads  *obs.Counter
	hitsSeen *obs.Counter
}

// AttachObs registers Flush+Reload telemetry on reg: fr.flushes,
// fr.reloads, and fr.hits (reloads that saw the victim's access).
func (f *FlushReload) AttachObs(reg *obs.Registry) {
	f.flushes = reg.Counter("fr.flushes")
	f.reloads = reg.Counter("fr.reloads")
	f.hitsSeen = reg.Counter("fr.hits")
}

// NewFlushReload creates the attacker.
func NewFlushReload(c *cache.Cache, actor int) *FlushReload {
	return &FlushReload{c: c, actor: actor}
}

// Calibrate fixes the hit/miss threshold using a scratch address.
func (f *FlushReload) Calibrate(scratch uint64, samples int) int {
	if samples <= 0 {
		samples = 64
	}
	var hits, misses []int
	for i := 0; i < samples; i++ {
		f.c.Flush(scratch)
		misses = append(misses, f.c.Probe(f.actor, scratch))
		hits = append(hits, f.c.Probe(f.actor, scratch))
	}
	sort.Ints(hits)
	sort.Ints(misses)
	f.threshold = (hits[len(hits)*9/10] + misses[len(misses)/10]) / 2
	f.c.Flush(scratch)
	return f.threshold
}

// Threshold returns the calibrated boundary.
func (f *FlushReload) Threshold() int { return f.threshold }

// Flush evicts the monitored lines (step 1).
func (f *FlushReload) Flush(addrs ...uint64) {
	for _, a := range addrs {
		f.c.Flush(a)
		f.flushes.Inc()
	}
}

// Reload measures one line and reports whether the victim touched it
// since the last flush (a cache hit), then flushes it again for the next
// round — the standard Flush+Reload sampling loop body.
func (f *FlushReload) Reload(addr uint64) bool {
	if f.threshold == 0 {
		f.Calibrate(addr^0x3f000, 0)
	}
	lat := f.c.Probe(f.actor, addr)
	f.c.Flush(addr)
	f.reloads.Inc()
	if lat < f.threshold {
		f.hitsSeen.Inc()
		return true
	}
	return false
}

// Sample reloads every monitored address once, returning per-address hit
// flags for this sampling interval.
func (f *FlushReload) Sample(addrs []uint64) []bool {
	out := make([]bool, len(addrs))
	for i, a := range addrs {
		out[i] = f.Reload(a)
	}
	return out
}
