package cache

import "math/rand"

// Noise models the "other applications and signal handlers using the same
// cache" that cause false positives in the paper's Prime+Probe phase
// (§V-C). Each Tick performs a Poisson-ish number of random accesses from
// a dedicated noise actor over a configurable physical range.
type Noise struct {
	// Actor is the cache actor id the noise runs under; assign it to a
	// separate CAT class of service to reproduce the paper's isolation.
	Actor int
	// Rate is the expected number of noise accesses per Tick.
	Rate float64
	// Lo and Hi bound the physical address range the noise touches.
	Lo, Hi uint64

	rng *rand.Rand
}

// NewNoise creates a noise source with its own deterministic stream.
func NewNoise(actor int, rate float64, lo, hi uint64, seed int64) *Noise {
	return &Noise{Actor: actor, Rate: rate, Lo: lo, Hi: hi, rng: rand.New(rand.NewSource(seed))}
}

// FixedNoise models the OS/SGX fault-handling code paths of §V-C2: every
// delivery touches the same kernel lines, so the sets they map to are
// persistently polluted — exactly the pollution the paper's frame
// selection sidesteps by remapping the monitored array onto frames whose
// sets are quiet.
type FixedNoise struct {
	Actor int
	addrs []uint64 // line addresses, fixed at construction

	// lines are addrs resolved against on, at the first Tick against it.
	lines []Line
	on    *Cache
}

// NewFixedNoise draws count fixed kernel line addresses in [lo, hi).
func NewFixedNoise(actor, count int, lo, hi uint64, seed int64) *FixedNoise {
	rng := rand.New(rand.NewSource(seed))
	n := &FixedNoise{Actor: actor, addrs: make([]uint64, max(count, 0))}
	for i := range n.addrs {
		a := lo + uint64(rng.Int63n(int64(hi-lo)))
		n.addrs[i] = a &^ 63 // line-aligned
	}
	return n
}

// Tick replays the fixed access pattern, as that many Access calls would.
func (n *FixedNoise) Tick(c *Cache) int {
	if n == nil || len(n.addrs) == 0 {
		return 0
	}
	if n.on != c {
		n.lines, n.on = make([]Line, len(n.addrs)), c
		for i, a := range n.addrs {
			n.lines[i] = c.Resolve(a)
		}
	}
	v := c.view(n.Actor)
	for _, l := range n.lines {
		c.access(v, n.Actor, l)
	}
	return len(n.lines)
}

// Tick injects this tick's noise accesses into c and returns how many
// were performed.
func (n *Noise) Tick(c *Cache) int {
	if n == nil || n.Rate <= 0 || n.Hi <= n.Lo {
		return 0
	}
	// Sample a count with mean Rate: floor plus Bernoulli remainder.
	count := int(n.Rate)
	if n.rng.Float64() < n.Rate-float64(count) {
		count++
	}
	if count == 0 {
		return 0
	}
	v := c.view(n.Actor)
	for i := 0; i < count; i++ {
		addr := n.Lo + uint64(n.rng.Int63n(int64(n.Hi-n.Lo)))
		c.access(v, n.Actor, c.Resolve(addr))
	}
	return count
}
