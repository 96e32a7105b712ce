package cache

import (
	"math/bits"
	"math/rand"
	"strconv"

	"github.com/zipchannel/zipchannel/internal/obs"
)

// refCache is the array-of-structs LLC model the flat Cache replaced,
// kept verbatim (modulo names) as the reference the differential tests
// compare the flat model against: every set owns a slice of way structs,
// actors resolve their class of service through maps on every access,
// and PLRU bookkeeping runs under every policy.
type refCache struct {
	cfg    Config
	slices [][]refSet
	cos    map[int]uint64
	actor  map[int]int
	clock  uint64
	rng    *rand.Rand

	reg       *obs.Registry
	prefix    string
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
	flushes   *obs.Counter
	cosStats  map[int]cosCounters

	setBits   int
	lineBits  int
	sliceBits int
	sliceMask []uint64
}

type refWay struct {
	valid bool
	line  uint64
	owner int
	lru   uint64
}

type refSet struct {
	ways []refWay
	plru uint64
}

type cosCounters struct {
	hits, misses *obs.Counter
}

func newRef(cfg Config) *refCache {
	cfg = cfg.withDefaults()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	prefix := cfg.MetricsPrefix
	if prefix == "" {
		prefix = "cache"
	}
	c := &refCache{
		cfg:       cfg,
		cos:       map[int]uint64{DefaultCoS: waymask(cfg.Ways)},
		actor:     map[int]int{},
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		reg:       reg,
		prefix:    prefix,
		hits:      reg.Counter(prefix + ".hits"),
		misses:    reg.Counter(prefix + ".misses"),
		evictions: reg.Counter(prefix + ".evictions"),
		flushes:   reg.Counter(prefix + ".flushes"),
		cosStats:  map[int]cosCounters{},
		setBits:   bits.TrailingZeros(uint(cfg.Sets)),
		lineBits:  bits.TrailingZeros(uint(cfg.LineSize)),
		sliceBits: bits.TrailingZeros(uint(cfg.Slices)),
	}
	c.slices = make([][]refSet, cfg.Slices)
	for s := range c.slices {
		sets := make([]refSet, cfg.Sets)
		for i := range sets {
			sets[i].ways = make([]refWay, cfg.Ways)
		}
		c.slices[s] = sets
	}
	c.sliceMask = make([]uint64, c.sliceBits)
	for b := range c.sliceMask {
		var m uint64
		for p := uint(b); p < 64; p += uint(c.sliceBits + 1) {
			m |= 1 << p
		}
		c.sliceMask[b] = m
	}
	return c
}

func (c *refCache) cosOf(actor int) int {
	cos, ok := c.actor[actor]
	if !ok {
		cos = DefaultCoS
	}
	return cos
}

func (c *refCache) cosCountersFor(cos int) cosCounters {
	cc, ok := c.cosStats[cos]
	if !ok {
		base := c.prefix + ".cos" + strconv.Itoa(cos)
		cc = cosCounters{
			hits:   c.reg.Counter(base + ".hits"),
			misses: c.reg.Counter(base + ".misses"),
		}
		c.cosStats[cos] = cc
	}
	return cc
}

func (c *refCache) SetCoSMask(cos int, mask uint64) {
	c.cos[cos] = mask & waymask(c.cfg.Ways)
}

func (c *refCache) AssignActor(actor, cos int) { c.actor[actor] = cos }

func (c *refCache) maskFor(actor int) uint64 {
	m, ok := c.cos[c.cosOf(actor)]
	if !ok || m == 0 {
		m = waymask(c.cfg.Ways)
	}
	return m
}

func (c *refCache) LineOf(paddr uint64) uint64 { return paddr >> uint(c.lineBits) }

func (c *refCache) SetOf(paddr uint64) (slice, set int) {
	line := c.LineOf(paddr)
	return c.SliceOf(paddr), int(line & uint64(c.cfg.Sets-1))
}

func (c *refCache) SliceOf(paddr uint64) int {
	if c.cfg.Slices == 1 {
		return 0
	}
	line := c.LineOf(paddr)
	var out int
	for b := 0; b < c.sliceBits; b++ {
		out |= (bits.OnesCount64(line&c.sliceMask[b]) & 1) << uint(b)
	}
	return out
}

func (c *refCache) Access(actor int, paddr uint64) Result {
	c.clock++
	line := c.LineOf(paddr)
	sl, st := c.SetOf(paddr)
	s := &c.slices[sl][st]
	res := Result{Set: sl*c.cfg.Sets + st, Slice: sl, Evicted: ^uint64(0), Victim: -1}

	cc := c.cosCountersFor(c.cosOf(actor))
	for i := range s.ways {
		w := &s.ways[i]
		if w.valid && w.line == line {
			w.lru = c.clock
			c.touchPLRU(s, i)
			res.Hit = true
			res.Latency = c.latency(c.cfg.HitLatency)
			c.hits.Inc()
			cc.hits.Inc()
			return res
		}
	}

	c.misses.Inc()
	cc.misses.Inc()
	res.Latency = c.latency(c.cfg.MissLatency)
	mask := c.maskFor(actor)
	victim := c.pickVictim(s, mask)
	w := &s.ways[victim]
	if w.valid {
		res.Evicted = w.line
		res.Victim = w.owner
		c.evictions.Inc()
	}
	*w = refWay{valid: true, line: line, owner: actor, lru: c.clock}
	c.touchPLRU(s, victim)
	return res
}

func (c *refCache) Probe(actor int, paddr uint64) int {
	return c.Access(actor, paddr).Latency
}

func (c *refCache) Flush(paddr uint64) {
	line := c.LineOf(paddr)
	sl, st := c.SetOf(paddr)
	s := &c.slices[sl][st]
	for i := range s.ways {
		if s.ways[i].valid && s.ways[i].line == line {
			s.ways[i] = refWay{}
			c.flushes.Inc()
			return
		}
	}
}

func (c *refCache) Contains(paddr uint64) bool {
	line := c.LineOf(paddr)
	sl, st := c.SetOf(paddr)
	for _, w := range c.slices[sl][st].ways {
		if w.valid && w.line == line {
			return true
		}
	}
	return false
}

func (c *refCache) Heatmap() [][]int {
	hm := make([][]int, len(c.slices))
	for sl, sets := range c.slices {
		hm[sl] = make([]int, len(sets))
		for st := range sets {
			n := 0
			for _, w := range sets[st].ways {
				if w.valid {
					n++
				}
			}
			hm[sl][st] = n
		}
	}
	return hm
}

func (c *refCache) OccupancyOf(actor int, paddr uint64) int {
	sl, st := c.SetOf(paddr)
	n := 0
	for _, w := range c.slices[sl][st].ways {
		if w.valid && w.owner == actor {
			n++
		}
	}
	return n
}

func (c *refCache) pickVictim(s *refSet, mask uint64) int {
	for i := range s.ways {
		if mask&(1<<uint(i)) != 0 && !s.ways[i].valid {
			return i
		}
	}
	switch c.cfg.Replacement {
	case LRU:
		best, bestLRU := -1, ^uint64(0)
		for i := range s.ways {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			if s.ways[i].lru < bestLRU {
				best, bestLRU = i, s.ways[i].lru
			}
		}
		if best >= 0 {
			return best
		}
	case TreePLRU:
		if v := c.plruVictim(s, mask); v >= 0 {
			return v
		}
	case RandomRepl:
		candidates := make([]int, 0, len(s.ways))
		for i := range s.ways {
			if mask&(1<<uint(i)) != 0 {
				candidates = append(candidates, i)
			}
		}
		if len(candidates) > 0 {
			return candidates[c.rng.Intn(len(candidates))]
		}
	}
	return 0
}

func (c *refCache) plruVictim(s *refSet, mask uint64) int {
	n := len(s.ways)
	idx := 1
	for idx < n {
		bit := (s.plru >> uint(idx)) & 1
		idx = idx*2 + int(bit)
	}
	v := idx - n
	if v >= 0 && v < n && mask&(1<<uint(v)) != 0 {
		return v
	}
	for i := 0; i < n; i++ {
		if mask&(1<<uint(i)) != 0 {
			return i
		}
	}
	return -1
}

func (c *refCache) touchPLRU(s *refSet, wayIdx int) {
	n := len(s.ways)
	idx := wayIdx + n
	for idx > 1 {
		parent := idx / 2
		bit := uint64(idx & 1)
		if bit == 0 {
			s.plru |= 1 << uint(parent)
		} else {
			s.plru &^= 1 << uint(parent)
		}
		idx = parent
	}
}

func (c *refCache) latency(base int) int {
	lat := base
	if c.cfg.Jitter > 0 {
		lat += c.rng.Intn(2*c.cfg.Jitter+1) - c.cfg.Jitter
	}
	if c.cfg.OutlierProb > 0 && c.rng.Float64() < c.cfg.OutlierProb {
		lat += c.cfg.OutlierLatency
	}
	if lat < 1 {
		lat = 1
	}
	return lat
}
