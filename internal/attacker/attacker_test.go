package attacker

import (
	"errors"
	"reflect"
	"testing"

	"github.com/zipchannel/zipchannel/internal/cache"
	"github.com/zipchannel/zipchannel/internal/obs"
)

func newCache() *cache.Cache {
	return cache.New(cache.Config{Sets: 64, Ways: 4, Slices: 2, Jitter: 3, Seed: 1})
}

const (
	victimActor   = 1
	attackerActor = 2
)

func TestCalibrateSeparatesHitsAndMisses(t *testing.T) {
	c := newCache()
	p := NewPrimeProbe(c, attackerActor, 1<<30, 1<<20)
	th := p.Calibrate(100)
	cfg := c.Config()
	if th <= cfg.HitLatency || th >= cfg.MissLatency {
		t.Errorf("threshold %d not between hit %d and miss %d", th, cfg.HitLatency, cfg.MissLatency)
	}
}

func TestEvictionSetMapsToTargetSet(t *testing.T) {
	c := newCache()
	const base, size = 1 << 30, 1 << 22
	p := NewPrimeProbe(c, attackerActor, base, size)
	target := c.GlobalSet(0x12345000)
	ev, err := p.EvictionSet(target, 4)
	if err != nil {
		t.Fatalf("EvictionSet: %v", err)
	}
	if len(ev) != 4 {
		t.Fatalf("got %d lines, want 4", len(ev))
	}
	inTarget := map[cache.Line]bool{}
	for a := uint64(base); a < base+size; a += 64 {
		if c.GlobalSet(a) == target {
			inTarget[c.Resolve(a)] = true
		}
	}
	for _, l := range ev {
		if !inTarget[l] {
			t.Errorf("line %+v is not a pool line of set %d", l, target)
		}
	}
}

func TestEvictionSetsAreLowestPoolLines(t *testing.T) {
	c := newCache()
	const base, lines = 1<<30 + 5*64, 1 << 12 // base is not set-aligned
	p := NewPrimeProbe(c, attackerActor, base, lines*64)
	bySet := map[int][]cache.Line{}
	for i := uint64(0); i < lines; i++ {
		gs := c.GlobalSet(base + i*64)
		bySet[gs] = append(bySet[gs], c.Resolve(base+i*64))
	}
	for gs := 0; gs < 128; gs++ {
		for _, ways := range []int{1, 4, 2} { // growing, then a memoized prefix
			ev, err := p.EvictionSet(gs, ways)
			if err != nil {
				t.Fatalf("EvictionSet(%d, %d): %v", gs, ways, err)
			}
			if want := bySet[gs][:ways]; !reflect.DeepEqual(ev, want) {
				t.Fatalf("EvictionSet(%d, %d) = %+v, want the pool's lowest lines %+v", gs, ways, ev, want)
			}
		}
	}
}

func TestPrimeProbeRoundDoesNotAllocate(t *testing.T) {
	c := newCache()
	p := NewPrimeProbe(c, attackerActor, 1<<30, 1<<22)
	p.AttachObs(obs.NewRegistry())
	p.Calibrate(100)
	ev, err := p.EvictionSet(c.GlobalSet(0x7f0000), 4)
	if err != nil {
		t.Fatal(err)
	}
	round := func() {
		p.Prime(ev)
		c.Access(victimActor, 0x7f0000)
		p.Probe(ev)
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("a Prime+Probe round allocates %.1f times", n)
	}
}

func TestEvictionSetTooSmallPool(t *testing.T) {
	c := newCache()
	p := NewPrimeProbe(c, attackerActor, 1<<30, 128) // 2 lines only
	found := 0
	for gs := 0; gs < 128; gs++ {
		if _, err := p.EvictionSet(gs, 4); err == nil {
			found++
		} else if !errors.Is(err, ErrNoEvictionSet) {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if found != 0 {
		t.Errorf("a 2-line pool built %d eviction sets of 4", found)
	}
}

func TestPrimeProbeDetectsVictimAccess(t *testing.T) {
	c := newCache()
	p := NewPrimeProbe(c, attackerActor, 1<<30, 1<<22)
	p.Calibrate(100)

	victimAddr := uint64(0x7f0000)
	target := c.GlobalSet(victimAddr)
	ev, err := p.EvictionSet(target, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Round 1: no victim access -> no evictions.
	p.Prime(ev)
	if n := p.Probe(ev); n != 0 {
		t.Errorf("probe without victim reported %d evictions", n)
	}

	// Round 2: the victim touches its address -> exactly one eviction.
	p.Prime(ev)
	c.Access(victimActor, victimAddr)
	if n := p.Probe(ev); n != 1 {
		t.Errorf("probe after victim access reported %d evictions, want 1", n)
	}
}

func TestPrimeProbeWithCATSingleWay(t *testing.T) {
	// The paper's configuration: CAT reduces the monitored region to a
	// single way, so a 1-line eviction set suffices.
	c := newCache()
	c.SetCoSMask(1, 0b0001)
	c.AssignActor(victimActor, 1)
	c.AssignActor(attackerActor, 1)
	p := NewPrimeProbe(c, attackerActor, 1<<30, 1<<22)
	p.Calibrate(100)

	victimAddr := uint64(0x555000)
	target := c.GlobalSet(victimAddr)
	ev, err := p.EvictionSet(target, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Prime(ev)
	c.Access(victimActor, victimAddr)
	if n := p.Probe(ev); n != 1 {
		t.Errorf("single-way prime+probe missed the victim access (n=%d)", n)
	}
}

func TestFlushReloadDetectsSharedAccess(t *testing.T) {
	c := newCache()
	reg := obs.NewRegistry()
	f := NewFlushReload(c, attackerActor)
	f.AttachObs(reg)
	shared := uint64(0x40000) // shared library line
	f.Calibrate(0x99000, 100)

	f.Flush(shared)
	if f.Reload(shared) {
		t.Error("reload without victim should miss")
	}
	// Victim touches the shared line; the next reload must hit.
	c.Access(victimActor, shared)
	if !f.Reload(shared) {
		t.Error("reload after victim access should hit")
	}
	// Reload auto-flushes: with no further victim activity, miss again.
	if f.Reload(shared) {
		t.Error("second reload should miss (auto-flush)")
	}
	// The fr.* counts reach the registry at Publish, each event once.
	if n := reg.Snapshot().Counters["fr.reloads"]; n != 0 {
		t.Errorf("fr.reloads = %d before Publish, want 0", n)
	}
	f.Publish()
	f.Publish()
	want := map[string]uint64{"fr.flushes": 1, "fr.reloads": 3, "fr.hits": 1}
	if got := reg.Snapshot().Counters; !reflect.DeepEqual(got, want) {
		t.Errorf("counters %v, want %v", got, want)
	}
}

// The pp.* round counts and the latency histogram reach the registry at
// Publish, each event once however often Publish runs.
func TestPrimeProbePublish(t *testing.T) {
	c := newCache()
	reg := obs.NewRegistry()
	p := NewPrimeProbe(c, attackerActor, 1<<30, 1<<22)
	p.AttachObs(reg)
	p.Calibrate(100)
	ev, err := p.EvictionSet(c.GlobalSet(0x7f0000), 4)
	if err != nil {
		t.Fatal(err)
	}
	evicted := 0
	for round := 0; round < 3; round++ {
		p.Prime(ev)
		c.Access(victimActor, 0x7f0000)
		evicted += p.Probe(ev)
		if round == 0 {
			if n := reg.Snapshot().Counters["pp.probes"]; n != 0 {
				t.Errorf("pp.probes = %d before Publish, want 0", n)
			}
			p.Publish()
			p.Publish()
		}
	}
	p.Publish()
	snap := reg.Snapshot()
	want := map[string]uint64{
		"pp.primes": 3, "pp.probes": 3, "pp.probed_lines": 3 * uint64(len(ev)),
		"pp.evictions_observed": uint64(evicted), "pp.evset_failures": 0,
	}
	if !reflect.DeepEqual(snap.Counters, want) {
		t.Errorf("counters %v, want %v", snap.Counters, want)
	}
	if h := snap.Histograms["pp.probe_latency"]; h.Count != 3*uint64(len(ev)) {
		t.Errorf("pp.probe_latency count = %d, want %d", h.Count, 3*len(ev))
	}
	if evicted == 0 {
		t.Error("the victim's access evicted nothing")
	}
}
