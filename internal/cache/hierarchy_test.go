package cache

import (
	"testing"

	"github.com/zipchannel/zipchannel/internal/obs"
)

const (
	hVictim   = 1
	hAttacker = 2
)

func newHier(inclusive bool) *Hierarchy {
	return NewHierarchy(HierarchyConfig{
		LLC:       Config{Sets: 64, Ways: 4, Slices: 1, Jitter: 0},
		L1:        Config{Sets: 16, Ways: 2, Slices: 1, Jitter: 0},
		Inclusive: inclusive,
	})
}

func TestHierarchyL1HitHidesFromLLC(t *testing.T) {
	h := newHier(true)
	h.Access(hVictim, 0x1000)
	beforeHits, beforeMisses := h.LLC().Hits(), h.LLC().Misses()
	for i := 0; i < 10; i++ {
		r := h.Access(hVictim, 0x1000)
		if !r.Hit {
			t.Fatal("repeat access should hit L1")
		}
	}
	if h.LLC().Hits() != beforeHits || h.LLC().Misses() != beforeMisses {
		t.Error("L1 hits must not generate LLC traffic")
	}
}

func TestHierarchyLatencyOrdering(t *testing.T) {
	h := newHier(true)
	miss := h.Access(hVictim, 0x2000)
	hit := h.Access(hVictim, 0x2000)
	if hit.Latency >= miss.Latency {
		t.Errorf("L1 hit (%d) should be cheaper than full miss (%d)", hit.Latency, miss.Latency)
	}
}

// The attack-critical property: on an inclusive LLC, evicting the
// victim's line from the LLC (by cross-core Prime) back-invalidates its
// L1 copy, so the victim's next access misses into the LLC where the
// attacker observes it. On a non-inclusive LLC the victim keeps hitting
// in L1 and the Prime+Probe channel starves.
func TestHierarchyInclusivityEnablesPrimeProbe(t *testing.T) {
	run := func(inclusive bool) (victimMissesAfterEviction bool) {
		h := newHier(inclusive)
		victimAddr := uint64(0x3000)
		h.Access(hVictim, victimAddr) // victim caches its line in L1+LLC

		// Attacker evicts the victim's line from the shared LLC by
		// filling its set (stride = sets * lineSize = 4096).
		for i := 1; i <= 4; i++ {
			h.Access(hAttacker, victimAddr+uint64(i)*4096)
		}
		if h.LLC().Contains(victimAddr) {
			t.Fatal("attacker fill should have evicted the victim's LLC line")
		}
		r := h.Access(hVictim, victimAddr)
		return !r.Hit
	}
	if !run(true) {
		t.Error("inclusive LLC: back-invalidation should force a victim miss (observable)")
	}
	if run(false) {
		t.Error("non-inclusive LLC: the victim's L1 copy should survive (channel starves)")
	}
}

func TestHierarchyFlushAllLevels(t *testing.T) {
	h := newHier(true)
	h.Access(hVictim, 0x4000)
	if !h.Contains(hVictim, 0x4000) {
		t.Fatal("line should be resident")
	}
	h.Flush(0x4000)
	if h.Contains(hVictim, 0x4000) {
		t.Error("flush should clear every level")
	}
	if h.Access(hVictim, 0x4000).Hit {
		t.Error("post-flush access should miss")
	}
}

func TestHierarchyPrivateL1s(t *testing.T) {
	h := newHier(true)
	h.Access(hVictim, 0x5000)
	victimHit := h.Access(hVictim, 0x5000) // pure L1 hit
	// The attacker's first access to the same line misses its own
	// (private) L1 and pays the trip to the shared LLC, where it hits.
	r := h.Access(hAttacker, 0x5000)
	if !r.Hit {
		t.Error("the shared LLC should serve the attacker's access")
	}
	if r.Latency <= victimHit.Latency {
		t.Errorf("attacker's L1 miss (%d cycles) should cost more than a pure L1 hit (%d)",
			r.Latency, victimHit.Latency)
	}
}

// Publish hands every level's counts to the shared registry: the LLC's
// and each private L1's.
func TestHierarchyPublish(t *testing.T) {
	reg := obs.NewRegistry()
	h := NewHierarchy(HierarchyConfig{
		LLC:       Config{Sets: 64, Ways: 4, Slices: 1, Obs: reg},
		L1:        Config{Sets: 16, Ways: 2, Slices: 1},
		Inclusive: true,
	})
	h.Access(hVictim, 0x1000)   // misses both levels
	h.Access(hVictim, 0x1000)   // L1 hit
	h.Access(hAttacker, 0x1000) // the attacker's L1 misses, the LLC hits
	h.Publish()
	got := reg.Snapshot().Counters
	for name, want := range map[string]uint64{
		"cache.l1.hits": 1, "cache.l1.misses": 2, "cache.llc.hits": 1, "cache.llc.misses": 1,
	} {
		if got[name] != want {
			t.Errorf("%s = %d, want %d", name, got[name], want)
		}
	}
}
