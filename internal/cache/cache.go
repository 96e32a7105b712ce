// Package cache models a sliced, set-associative last-level cache with
// way-based Intel CAT partitioning, pluggable replacement policies, and a
// noisy latency model. It is the architectural substrate for the paper's
// Prime+Probe and Flush+Reload attacks: instead of timing real loads
// (which Go's runtime would perturb, per the reproduction brief), the
// attacker observes simulated latencies whose distribution mirrors
// hardware behaviour.
package cache

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"strconv"

	"github.com/zipchannel/zipchannel/internal/obs"
)

// Policy selects the replacement policy.
type Policy uint8

// Replacement policies.
const (
	LRU Policy = iota
	TreePLRU
	RandomRepl
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case TreePLRU:
		return "tree-plru"
	default:
		return "random"
	}
}

// Config describes the cache geometry and timing.
type Config struct {
	LineSize    int // bytes per line (default 64)
	Sets        int // sets per slice (default 1024, power of two)
	Ways        int // associativity (default 16)
	Slices      int // LLC slices (default 4, power of two)
	Replacement Policy

	HitLatency  int // cycles (default 40)
	MissLatency int // cycles (default 200)
	Jitter      int // +- uniform cycles of measurement noise (default 5)
	// OutlierProb injects occasional large latency spikes (context
	// switches, TLB misses); default 0.
	OutlierProb float64
	// OutlierLatency is the spike magnitude (default 800).
	OutlierLatency int

	Seed int64

	// Obs receives the cache's counters (hits, misses, evictions,
	// flushes, plus per-CoS splits) under MetricsPrefix, each time the
	// owner calls Publish. When nil the cache keeps a private registry.
	Obs *obs.Registry `json:"-"`
	// MetricsPrefix names this cache level in metric keys (default
	// "cache"; the hierarchy uses "cache.l1" / "cache.llc").
	MetricsPrefix string `json:",omitempty"`
}

func (c Config) withDefaults() Config {
	if c.LineSize == 0 {
		c.LineSize = 64
	}
	if c.Sets == 0 {
		c.Sets = 1024
	}
	if c.Ways == 0 {
		c.Ways = 16
	}
	if c.Slices == 0 {
		c.Slices = 4
	}
	if c.HitLatency == 0 {
		c.HitLatency = 40
	}
	if c.MissLatency == 0 {
		c.MissLatency = 200
	}
	if c.Jitter == 0 {
		c.Jitter = 5
	}
	if c.OutlierLatency == 0 {
		c.OutlierLatency = 800
	}
	return c
}

// DefaultCoS is the class of service used by accessors that were not
// explicitly assigned one; its mask allows every way.
const DefaultCoS = 0

// Result describes one access.
type Result struct {
	Hit     bool
	Latency int
	Set     int // global set index (slice * sets + set)
	Slice   int
	Evicted uint64 // line address evicted on miss, or ^0 if none
	Victim  int    // owner of the evicted line, -1 if none
}

// actorView is an actor's resolved CAT state: the ways it may allocate
// into, and its hits and misses since the view was resolved, for its
// class of service's counters.
type actorView struct {
	mask         uint64
	hits, misses tally
}

// tally is one event count of a cache, kept in a plain field: a cache
// runs on one goroutine, so its hot path makes no atomic adds. publish
// adds what the counter has not seen yet.
type tally struct {
	n, published uint64
	c            *obs.Counter
}

func (t *tally) publish() {
	t.c.Add(t.n - t.published)
	t.published = t.n
}

// Cache is the simulated LLC. Not safe for concurrent use: the attack
// harness interleaves victim and attacker deterministically. Its counts
// reach the registry only through Publish, so a goroutine reading the
// registry sees them as of the owner's last Publish.
//
// The sets are stored flat, as parallel arrays indexed by way: the ways
// of global set g (slice*Sets + set) are [g*Ways, (g+1)*Ways). A tag is
// the line address plus one, so 0 marks an invalid way; line ^0, which
// Result.Evicted already reserves for "none", cannot be cached.
type Cache struct {
	cfg    Config
	tags   []uint64       // line address + 1, or 0
	owners []int          // actor that brought the line in
	stamps []uint64       // logical time of the last touch, kept under LRU only
	plru   []uint64       // tree-PLRU state bits per global set, kept under TreePLRU only
	cos    map[int]uint64 // class of service -> allowed-way bitmask
	actor  map[int]int    // actor -> class of service
	clock  uint64
	// src is rng's source: the jitter draw reads it directly (see
	// jitter), rng serves random replacement and outliers. Both consume
	// one stream, in the order the calls happen.
	src rand.Source
	rng *rand.Rand
	// jitterN is the jitter draw's range 2*Jitter+1 and jitterMax the
	// largest accepted 31-bit draw, as math/rand's Int31n computes them;
	// jitterN is 0 when the range exceeds 31 bits.
	jitterN, jitterMax int32

	// views memoizes actorView per actor, and last the most recent one
	// (accesses come in long single-actor runs). SetCoSMask and
	// AssignActor clear both.
	views     map[int]*actorView
	last      *actorView
	lastActor int

	reg                              *obs.Registry
	prefix                           string
	hits, misses, evictions, flushes tally

	setBits   int
	lineBits  int
	sliceMask []uint64 // per slice bit: the comb of line bits whose parity it is
}

// New builds a cache from cfg (zero fields take defaults).
func New(cfg Config) *Cache {
	cfg = cfg.withDefaults()
	if cfg.Sets&(cfg.Sets-1) != 0 || cfg.Slices&(cfg.Slices-1) != 0 ||
		cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache: sets (%d), slices (%d), and line size (%d) must be powers of two",
			cfg.Sets, cfg.Slices, cfg.LineSize))
	}
	if cfg.Ways > 64 {
		panic(fmt.Sprintf("cache: ways (%d) must be at most 64: way masks and PLRU state are 64-bit words", cfg.Ways))
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry() // private: accessors work unattached
	}
	prefix := cfg.MetricsPrefix
	if prefix == "" {
		prefix = "cache"
	}
	sets := cfg.Slices * cfg.Sets
	src := rand.NewSource(cfg.Seed)
	c := &Cache{
		cfg:       cfg,
		tags:      make([]uint64, sets*cfg.Ways),
		owners:    make([]int, sets*cfg.Ways),
		stamps:    make([]uint64, sets*cfg.Ways),
		plru:      make([]uint64, sets),
		cos:       map[int]uint64{DefaultCoS: waymask(cfg.Ways)},
		actor:     map[int]int{},
		src:       src,
		rng:       rand.New(src),
		views:     map[int]*actorView{},
		reg:       reg,
		prefix:    prefix,
		hits:      tally{c: reg.Counter(prefix + ".hits")},
		misses:    tally{c: reg.Counter(prefix + ".misses")},
		evictions: tally{c: reg.Counter(prefix + ".evictions")},
		flushes:   tally{c: reg.Counter(prefix + ".flushes")},
		setBits:   bits.TrailingZeros(uint(cfg.Sets)),
		lineBits:  bits.TrailingZeros(uint(cfg.LineSize)),
	}
	if n := 2*cfg.Jitter + 1; cfg.Jitter > 0 && n <= math.MaxInt32 {
		c.jitterN = int32(n)
		c.jitterMax = int32(math.MaxInt32 - (1<<31)%uint32(n))
	}
	sliceBits := bits.TrailingZeros(uint(cfg.Slices))
	c.sliceMask = make([]uint64, sliceBits)
	for b := range c.sliceMask {
		var m uint64
		for p := uint(b); p < 64; p += uint(sliceBits + 1) {
			m |= 1 << p
		}
		c.sliceMask[b] = m
	}
	return c
}

func waymask(n int) uint64 { return (uint64(1) << uint(n)) - 1 }

// Config returns the (defaulted) configuration.
func (c *Cache) Config() Config { return c.cfg }

// Hits returns this cache's cumulative hit count, published or not.
func (c *Cache) Hits() uint64 { return c.hits.n }

// Misses returns this cache's cumulative miss count.
func (c *Cache) Misses() uint64 { return c.misses.n }

// Evictions returns this cache's cumulative eviction count.
func (c *Cache) Evictions() uint64 { return c.evictions.n }

// Flushes returns this cache's cumulative flush count.
func (c *Cache) Flushes() uint64 { return c.flushes.n }

// Accesses returns hits+misses.
func (c *Cache) Accesses() uint64 { return c.Hits() + c.Misses() }

// view resolves an actor's way mask and per-CoS hit/miss counters
// (<prefix>.cos<N>.hits / .misses, registered on first use).
func (c *Cache) view(actor int) *actorView {
	if c.last != nil && c.lastActor == actor {
		return c.last
	}
	v, ok := c.views[actor]
	if !ok {
		cos, ok := c.actor[actor]
		if !ok {
			cos = DefaultCoS
		}
		mask, ok := c.cos[cos]
		if !ok || mask == 0 {
			mask = waymask(c.cfg.Ways)
		}
		base := c.prefix + ".cos" + strconv.Itoa(cos)
		v = &actorView{
			mask:   mask,
			hits:   tally{c: c.reg.Counter(base + ".hits")},
			misses: tally{c: c.reg.Counter(base + ".misses")},
		}
		c.views[actor] = v
	}
	c.last, c.lastActor = v, actor
	return v
}

// Publish adds the counts since the last Publish to the registry's
// counters: hits, misses, evictions and flushes, and each class of
// service's hits and misses. Owners call it at points where a reader
// of the registry should see current counts, and before they return.
func (c *Cache) Publish() {
	for _, t := range [...]*tally{&c.hits, &c.misses, &c.evictions, &c.flushes} {
		t.publish()
	}
	for _, v := range c.views {
		v.publish()
	}
}

func (v *actorView) publish() {
	v.hits.publish()
	v.misses.publish()
}

// forgetViews drops every resolved actorView after a CAT change,
// publishing their counts first.
func (c *Cache) forgetViews() {
	for _, v := range c.views {
		v.publish()
	}
	clear(c.views)
	c.last = nil
}

// SetCoSMask defines a class of service as a bitmask over ways; this is
// the simulated `pqos` CAT configuration the attack uses to shrink the
// effective cache and shut out system noise (§V-C1).
func (c *Cache) SetCoSMask(cos int, mask uint64) {
	c.cos[cos] = mask & waymask(c.cfg.Ways)
	c.forgetViews()
}

// AssignActor pins an actor (victim, attacker, noise process) to a class
// of service.
func (c *Cache) AssignActor(actor, cos int) {
	c.actor[actor] = cos
	c.forgetViews()
}

// LineOf returns the line address of a physical address.
func (c *Cache) LineOf(paddr uint64) uint64 { return paddr >> uint(c.lineBits) }

// AddrOfLine returns the first byte address of a line address.
func (c *Cache) AddrOfLine(line uint64) uint64 { return line << uint(c.lineBits) }

// SetOf returns (slice, set) for a physical address. The set index uses
// the address bits above the line offset; the slice uses the complex
// hash.
func (c *Cache) SetOf(paddr uint64) (slice, set int) {
	line := c.LineOf(paddr)
	return c.sliceOfLine(line), int(line & uint64(c.cfg.Sets-1))
}

// SliceOf computes the slice via an xor-folding hash over the line
// address, in the spirit of the reverse-engineered Intel complex
// addressing function (Liu et al., §V-C1).
func (c *Cache) SliceOf(paddr uint64) int { return c.sliceOfLine(c.LineOf(paddr)) }

func (c *Cache) sliceOfLine(line uint64) int {
	var out int
	for b, m := range c.sliceMask {
		// Each slice bit is the parity of a distinct comb of line bits;
		// the combs are precomputed masks, so a bit costs one popcount.
		out |= (bits.OnesCount64(line&m) & 1) << uint(b)
	}
	return out
}

// GlobalSet returns a single index identifying (slice, set).
func (c *Cache) GlobalSet(paddr uint64) int {
	sl, st := c.SetOf(paddr)
	return sl*c.cfg.Sets + st
}

// ways returns the line's global set and its ways' tags.
func (c *Cache) ways(line uint64) (gs int, tags []uint64) {
	gs = c.sliceOfLine(line)*c.cfg.Sets + int(line&uint64(c.cfg.Sets-1))
	base := gs * c.cfg.Ways
	return gs, c.tags[base : base+c.cfg.Ways]
}

// Access simulates one access by actor to physical address paddr and
// returns the hit/miss outcome with a noisy latency.
func (c *Cache) Access(actor int, paddr uint64) Result {
	c.clock++
	v := c.view(actor)
	line := c.LineOf(paddr)
	gs, tags := c.ways(line)
	slice := gs >> c.setBits

	// Each path builds its Result in its return statement: filling a
	// local field by field and copying it out stalls on store forwarding.
	tag := line + 1
	for i, t := range tags {
		if t == tag {
			c.touch(gs, i)
			c.hits.n++
			v.hits.n++
			return Result{Hit: true, Latency: c.latency(c.cfg.HitLatency), Set: gs, Slice: slice,
				Evicted: ^uint64(0), Victim: -1}
		}
	}

	// Miss: allocate within the actor's CAT mask.
	c.misses.n++
	v.misses.n++
	lat := c.latency(c.cfg.MissLatency)
	i := c.pickVictim(gs, tags, v.mask)
	w := gs*c.cfg.Ways + i
	evicted, victim := ^uint64(0), -1
	if tags[i] != 0 {
		evicted, victim = tags[i]-1, c.owners[w]
		c.evictions.n++
	}
	tags[i] = tag
	c.owners[w] = actor
	c.touch(gs, i)
	return Result{Latency: lat, Set: gs, Slice: slice, Evicted: evicted, Victim: victim}
}

// Probe is like Access but reports only what a timing measurement would
// reveal: the latency. Attackers use it for the probe phase.
func (c *Cache) Probe(actor int, paddr uint64) int {
	return c.Access(actor, paddr).Latency
}

// Flush removes the line containing paddr from the cache (clflush). It
// affects all ways regardless of CoS, like the real instruction.
func (c *Cache) Flush(paddr uint64) {
	line := c.LineOf(paddr)
	_, tags := c.ways(line)
	for i, t := range tags {
		if t == line+1 {
			tags[i] = 0
			c.flushes.n++
			return
		}
	}
}

// Contains reports whether the line of paddr is cached (test/diagnostic
// introspection; a real attacker infers this from Probe latency).
func (c *Cache) Contains(paddr uint64) bool {
	line := c.LineOf(paddr)
	_, tags := c.ways(line)
	for _, t := range tags {
		if t == line+1 {
			return true
		}
	}
	return false
}

// Heatmap returns the current set occupancy: valid-line counts indexed
// [slice][set]. Exported so tools can render which sets an attack run
// actually touched.
func (c *Cache) Heatmap() [][]int {
	hm := make([][]int, c.cfg.Slices)
	for sl := range hm {
		hm[sl] = make([]int, c.cfg.Sets)
		for st := range hm[sl] {
			base := (sl*c.cfg.Sets + st) * c.cfg.Ways
			n := 0
			for _, t := range c.tags[base : base+c.cfg.Ways] {
				if t != 0 {
					n++
				}
			}
			hm[sl][st] = n
		}
	}
	return hm
}

// EmitHeatmap writes the occupancy heatmap as one structured trace event
// ("cache.heatmap") on the cache's registry, if a trace sink is attached.
func (c *Cache) EmitHeatmap() {
	c.reg.Emit(c.prefix+".heatmap", map[string]any{
		"prefix":    c.prefix,
		"slices":    c.cfg.Slices,
		"sets":      c.cfg.Sets,
		"ways":      c.cfg.Ways,
		"occupancy": c.Heatmap(),
	})
}

// OccupancyOf returns how many valid lines actor owns in the set of paddr.
func (c *Cache) OccupancyOf(actor int, paddr uint64) int {
	gs, tags := c.ways(c.LineOf(paddr))
	owners := c.owners[gs*c.cfg.Ways:]
	n := 0
	for i, t := range tags {
		if t != 0 && owners[i] == actor {
			n++
		}
	}
	return n
}

// touch records a hit on, or fill of, way i of global set gs in the
// state its replacement policy reads.
func (c *Cache) touch(gs, i int) {
	switch c.cfg.Replacement {
	case LRU:
		c.stamps[gs*c.cfg.Ways+i] = c.clock
	case TreePLRU:
		c.touchPLRU(gs, i)
	}
}

// pickVictim chooses the way a miss fills: the lowest invalid way in
// the mask, else the policy's choice among the mask's ways. The mask is
// never empty (view substitutes all ways for an empty one).
func (c *Cache) pickVictim(gs int, tags []uint64, mask uint64) int {
	if c.cfg.Replacement == LRU {
		// One ascending pass: an invalid way ends it, else the oldest
		// stamp wins (the lowest way among equals).
		stamps := c.stamps[gs*c.cfg.Ways:]
		best, oldest := 0, ^uint64(0)
		for m := mask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if tags[i] == 0 {
				return i
			}
			if stamps[i] < oldest {
				best, oldest = i, stamps[i]
			}
		}
		return best
	}
	for m := mask; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); tags[i] == 0 {
			return i
		}
	}
	if c.cfg.Replacement == TreePLRU {
		return c.plruVictim(gs, mask)
	}
	// RandomRepl: a uniform pick among the mask's ways in ascending order.
	for k := c.rng.Intn(bits.OnesCount64(mask)); k > 0; k-- {
		mask &= mask - 1
	}
	return bits.TrailingZeros64(mask)
}

// plruVictim walks the PLRU tree, constrained to ways in the mask; if the
// tree leads outside the mask it falls back to the first allowed way.
func (c *Cache) plruVictim(gs int, mask uint64) int {
	n := c.cfg.Ways
	idx := 1 // tree node index, 1-based heap layout
	for idx < n {
		bit := (c.plru[gs] >> uint(idx)) & 1
		idx = idx*2 + int(bit)
	}
	if v := idx - n; mask&(1<<uint(v)) != 0 {
		return v
	}
	return bits.TrailingZeros64(mask)
}

// touchPLRU flips the tree bits away from the touched way.
func (c *Cache) touchPLRU(gs, wayIdx int) {
	n := c.cfg.Ways
	idx := wayIdx + n
	for idx > 1 {
		parent := idx / 2
		// Point the parent away from us.
		if idx&1 == 0 {
			c.plru[gs] |= 1 << uint(parent)
		} else {
			c.plru[gs] &^= 1 << uint(parent)
		}
		idx = parent
	}
}

func (c *Cache) latency(base int) int {
	lat := base
	if c.cfg.Jitter > 0 {
		lat += c.jitter() - c.cfg.Jitter
	}
	if c.cfg.OutlierProb > 0 && c.rng.Float64() < c.cfg.OutlierProb {
		lat += c.cfg.OutlierLatency
	}
	if lat < 1 {
		lat = 1
	}
	return lat
}

// jitter returns rng.Intn(2*Jitter+1) without the calls between Intn and
// the source: the same rejection loop over the same 31-bit draws as
// math/rand's Int31n, so the value and the stream position match.
func (c *Cache) jitter() int {
	if c.jitterN == 0 {
		return c.rng.Intn(2*c.cfg.Jitter + 1)
	}
	v := int32(c.src.Int63() >> 32)
	for v > c.jitterMax {
		v = int32(c.src.Int63() >> 32)
	}
	return int(v % c.jitterN)
}
