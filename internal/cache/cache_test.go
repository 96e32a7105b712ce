package cache

import (
	"testing"
	"testing/quick"
)

func small() *Cache {
	return New(Config{Sets: 16, Ways: 4, Slices: 1, LineSize: 64, Jitter: 0})
}

func TestHitAfterMiss(t *testing.T) {
	c := small()
	r1 := c.Access(1, 0x1000)
	if r1.Hit {
		t.Error("first access should miss")
	}
	r2 := c.Access(1, 0x1000)
	if !r2.Hit {
		t.Error("second access should hit")
	}
	if r2.Latency >= r1.Latency {
		t.Errorf("hit latency %d should be below miss latency %d", r2.Latency, r1.Latency)
	}
	r3 := c.Access(1, 0x1030) // same line (offset 0x30 < 64)
	if !r3.Hit {
		t.Error("same-line access should hit")
	}
}

func TestFillSetThenEvict(t *testing.T) {
	c := small()
	// Addresses mapping to the same set: stride = sets * lineSize = 1024.
	base := uint64(0x4000)
	for i := 0; i < 4; i++ {
		c.Access(1, base+uint64(i)*1024)
	}
	for i := 0; i < 4; i++ {
		if !c.Contains(base + uint64(i)*1024) {
			t.Errorf("line %d should be resident after fill", i)
		}
	}
	// Fifth distinct line evicts exactly the LRU (line 0).
	r := c.Access(1, base+4*1024)
	if r.Hit {
		t.Error("fifth line should miss")
	}
	if r.Evicted != c.LineOf(base) {
		t.Errorf("evicted %#x, want LRU line %#x", r.Evicted, c.LineOf(base))
	}
	if c.Contains(base) {
		t.Error("LRU line should be gone")
	}
	if c.OccupancyOf(1, base) != 4 {
		t.Errorf("occupancy = %d, want 4", c.OccupancyOf(1, base))
	}
}

func TestLRUOrderRespectsTouches(t *testing.T) {
	c := small()
	base := uint64(0)
	for i := 0; i < 4; i++ {
		c.Access(1, base+uint64(i)*1024)
	}
	c.Access(1, base) // touch line 0: now line 1 is LRU
	r := c.Access(1, base+4*1024)
	if r.Evicted != c.LineOf(base+1024) {
		t.Errorf("evicted %#x, want line 1 (%#x)", r.Evicted, c.LineOf(base+1024))
	}
}

func TestFlushRemovesLine(t *testing.T) {
	c := small()
	c.Access(1, 0x2000)
	if !c.Contains(0x2000) {
		t.Fatal("line should be resident")
	}
	c.Flush(0x2000)
	if c.Contains(0x2000) {
		t.Error("line should be flushed")
	}
	if c.Access(1, 0x2000).Hit {
		t.Error("access after flush should miss")
	}
	if c.Flushes() != 1 {
		t.Errorf("flush count = %d", c.Flushes())
	}
}

func TestCATMaskConfinesAllocation(t *testing.T) {
	c := small()
	const (
		cosA = 1
		cosB = 2
	)
	c.SetCoSMask(cosA, 0b0011) // ways 0-1
	c.SetCoSMask(cosB, 0b1100) // ways 2-3
	c.AssignActor(10, cosA)
	c.AssignActor(20, cosB)
	// Actor 10 fills its 2 ways, then actor 20 fills its 2 ways; none of
	// actor 10's lines may be evicted by actor 20.
	for i := 0; i < 2; i++ {
		c.Access(10, uint64(i)*1024)
	}
	for i := 0; i < 8; i++ {
		r := c.Access(20, 0x100000+uint64(i)*1024)
		if r.Victim == 10 {
			t.Fatalf("CAT-isolated actor 20 evicted actor 10's line on access %d", i)
		}
	}
	for i := 0; i < 2; i++ {
		if !c.Contains(uint64(i) * 1024) {
			t.Errorf("actor 10's line %d should survive CAT-isolated pressure", i)
		}
	}
}

func TestCATSingleWay(t *testing.T) {
	// The paper reduces the cache to a single way; with one way, every
	// distinct same-set line evicts the previous.
	c := small()
	c.SetCoSMask(1, 0b0001)
	c.AssignActor(1, 1)
	c.Access(1, 0)
	c.Access(1, 1024)
	if c.Contains(0) {
		t.Error("single-way CoS must evict the previous line")
	}
}

func TestSliceHashStableAndInRange(t *testing.T) {
	c := New(Config{Sets: 64, Ways: 4, Slices: 4, Jitter: 0})
	counts := make([]int, 4)
	prop := func(addr uint64) bool {
		s := c.SliceOf(addr)
		if s < 0 || s >= 4 {
			return false
		}
		counts[s]++
		return s == c.SliceOf(addr) // deterministic
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
	for s, n := range counts {
		if n < 500 { // roughly uniform over 4000 samples
			t.Errorf("slice %d got only %d/4000 addresses", s, n)
		}
	}
}

func TestSameLineSameSet(t *testing.T) {
	c := New(Config{Sets: 64, Ways: 4, Slices: 4, Jitter: 0})
	for off := uint64(0); off < 64; off++ {
		if c.GlobalSet(0x12340) != c.GlobalSet(0x12340+off) {
			t.Fatalf("offset %d changed the set", off)
		}
	}
}

func TestReplacementPolicies(t *testing.T) {
	for _, pol := range []Policy{LRU, TreePLRU, RandomRepl} {
		t.Run(pol.String(), func(t *testing.T) {
			c := New(Config{Sets: 16, Ways: 4, Slices: 1, Replacement: pol, Jitter: 0, Seed: 42})
			// Invariant: a set never holds more lines than ways, and a
			// re-access of a resident line always hits.
			for i := 0; i < 100; i++ {
				addr := uint64(i%7) * 1024
				c.Access(1, addr)
				if !c.Access(1, addr).Hit {
					t.Fatalf("immediate re-access of %#x missed under %v", addr, pol)
				}
			}
		})
	}
}

func TestJitterBounds(t *testing.T) {
	c := New(Config{Sets: 16, Ways: 2, Slices: 1, HitLatency: 40, MissLatency: 200, Jitter: 5, Seed: 7})
	for i := 0; i < 200; i++ {
		r := c.Access(1, 0x5000)
		if i == 0 {
			if r.Latency < 195 || r.Latency > 205 {
				t.Errorf("miss latency %d outside [195,205]", r.Latency)
			}
			continue
		}
		if r.Latency < 35 || r.Latency > 45 {
			t.Errorf("hit latency %d outside [35,45]", r.Latency)
		}
	}
}

func TestOutliers(t *testing.T) {
	c := New(Config{Sets: 16, Ways: 2, Slices: 1, OutlierProb: 0.5, Seed: 3, Jitter: 0})
	c.Access(1, 0)
	spikes := 0
	for i := 0; i < 200; i++ {
		if c.Probe(1, 0) > 400 {
			spikes++
		}
	}
	if spikes < 50 || spikes > 150 {
		t.Errorf("outlier count %d implausible for p=0.5", spikes)
	}
}

func TestNoiseTick(t *testing.T) {
	c := small()
	n := NewNoise(99, 2.5, 0, 1<<20, 11)
	total := 0
	for i := 0; i < 1000; i++ {
		total += n.Tick(c)
	}
	if total < 2000 || total > 3000 {
		t.Errorf("noise total %d, want ~2500", total)
	}
	if c.Misses() == 0 {
		t.Error("noise should cause misses")
	}
	var nilNoise *Noise
	if nilNoise.Tick(c) != 0 {
		t.Error("nil noise should be a no-op")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two sets should panic")
		}
	}()
	New(Config{Sets: 3})
}

func TestTooManyWaysPanics(t *testing.T) {
	New(Config{Ways: 64}) // the widest way mask still fits
	defer func() {
		if recover() == nil {
			t.Error("65 ways should panic: way masks are 64-bit")
		}
	}()
	New(Config{Ways: 65})
}

func TestAccessDoesNotAllocate(t *testing.T) {
	for _, pol := range []Policy{LRU, TreePLRU, RandomRepl} {
		c := New(Config{Sets: 16, Ways: 4, Slices: 2, Replacement: pol, Seed: 1})
		c.SetCoSMask(1, 0b0110)
		c.AssignActor(2, 1)
		i := 0
		step := func() {
			// Eight same-set lines over a 2-way mask: misses and evictions.
			c.Access(1+i%2, uint64(i%8)*16*64)
			i++
		}
		step() // resolves both actors' CoS views and counters
		step()
		if n := testing.AllocsPerRun(1000, step); n != 0 {
			t.Errorf("%v: Access allocates %.1f times per call", pol, n)
		}
	}
}
