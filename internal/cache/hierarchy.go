package cache

// Hierarchy models a private L1 in front of the shared LLC, with
// configurable inclusivity. Cross-core Prime+Probe (the paper's §V
// channel) works because Intel's LLC was inclusive: evicting a line from
// the LLC back-invalidates the victim's L1 copy, forcing the next victim
// access to miss into the LLC where the attacker can see it. On a
// non-inclusive LLC the victim can keep hitting in its private L1 and the
// channel starves — the architectural caveat behind "attacks, including
// ours, resort to other levels" (§VII-C).
type Hierarchy struct {
	l1s       map[int]*Cache // private L1 per actor
	llc       *Cache
	inclusive bool
	l1cfg     Config
}

// HierarchyConfig describes the two levels.
type HierarchyConfig struct {
	L1        Config // per-actor private level (defaults: 64 sets, 8 ways)
	LLC       Config
	Inclusive bool
}

// NewHierarchy builds the two-level cache.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	l1 := cfg.L1
	if l1.Sets == 0 {
		l1.Sets = 64
	}
	if l1.Ways == 0 {
		l1.Ways = 8
	}
	if l1.Slices == 0 {
		l1.Slices = 1
	}
	if l1.HitLatency == 0 {
		l1.HitLatency = 4
	}
	if l1.MissLatency == 0 {
		l1.MissLatency = 40 // an L1 miss costs roughly an LLC hit
	}
	if l1.Obs == nil {
		l1.Obs = cfg.LLC.Obs // one registry wires both levels
	}
	if l1.MetricsPrefix == "" {
		l1.MetricsPrefix = "cache.l1"
	}
	llc := cfg.LLC
	if llc.MetricsPrefix == "" {
		llc.MetricsPrefix = "cache.llc"
	}
	return &Hierarchy{
		l1s:       map[int]*Cache{},
		llc:       New(llc),
		inclusive: cfg.Inclusive,
		l1cfg:     l1,
	}
}

// LLC exposes the shared level (the attacker probes it directly).
func (h *Hierarchy) LLC() *Cache { return h.llc }

// Publish publishes every level's counts (see Cache.Publish).
func (h *Hierarchy) Publish() {
	for _, l1 := range h.l1s {
		l1.Publish()
	}
	h.llc.Publish()
}

func (h *Hierarchy) l1(actor int) *Cache {
	c, ok := h.l1s[actor]
	if !ok {
		cfg := h.l1cfg
		cfg.Seed += int64(actor)
		c = New(cfg)
		h.l1s[actor] = c
	}
	return c
}

// Access performs a hierarchical access: an L1 hit never reaches the
// LLC; an L1 miss allocates in both levels. With an inclusive LLC, any
// line the LLC evicts is back-invalidated from every L1.
func (h *Hierarchy) Access(actor int, paddr uint64) Result {
	l1 := h.l1(actor)
	r1 := l1.Access(actor, paddr)
	if r1.Hit {
		return r1
	}
	r2 := h.llc.Access(actor, paddr)
	if h.inclusive && r2.Evicted != ^uint64(0) {
		evictedAddr := h.llc.AddrOfLine(r2.Evicted)
		for _, other := range h.l1s {
			other.Flush(evictedAddr)
		}
	}
	r2.Latency += r1.Latency
	return r2
}

// Flush removes the line from every level (clflush semantics).
func (h *Hierarchy) Flush(paddr uint64) {
	for _, l1 := range h.l1s {
		l1.Flush(paddr)
	}
	h.llc.Flush(paddr)
}

// Contains reports residency at any level for the given actor's view.
func (h *Hierarchy) Contains(actor int, paddr uint64) bool {
	return h.l1(actor).Contains(paddr) || h.llc.Contains(paddr)
}
