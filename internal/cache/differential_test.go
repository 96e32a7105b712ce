package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/zipchannel/zipchannel/internal/obs"
)

// diffGeometries are the cache shapes the differential tests drive: the
// default LLC, a small single-slice cache, a non-power-of-two
// associativity (the PLRU tree is lopsided), the 64-way maximum (full
// way masks and PLRU words), and a direct-mapped cache with 32-byte lines.
var diffGeometries = []Config{
	{},
	{Sets: 16, Ways: 4, Slices: 1},
	{Sets: 8, Ways: 12, Slices: 2},
	{Sets: 4, Ways: 64, Slices: 4},
	{Sets: 32, Ways: 1, Slices: 8, LineSize: 32},
}

// diffJitters are the jitter amplitudes the differential tests drive.
// The jitter draw rejects a 31-bit draw above the largest multiple of
// 2*Jitter+1: with probability ~4e-9 per draw at 4 (the default's
// order), and ~50% at 1<<29, where the rejection loop runs constantly.
// At 1<<30 the range exceeds 31 bits and the draw falls back to Intn.
var diffJitters = []int{4, 1, 1 << 29, 1 << 30}

// diffConfig decodes a selector into a configuration: the geometry from
// bits 0-2, the replacement policy from bits 3-4, the jitter from bits
// 5-6, and outliers (which draw from the RNG too) from bit 7.
func diffConfig(sel uint8, seed int64) Config {
	cfg := diffGeometries[int(sel&7)%len(diffGeometries)]
	cfg.Replacement = Policy(sel >> 3 & 3 % 3)
	cfg.Seed = seed
	cfg.Jitter = diffJitters[sel>>5&3]
	if sel&0x80 != 0 {
		cfg.OutlierProb = 0.1
	}
	return cfg
}

// runDifferential replays ops against the flat Cache and the reference
// model. Each op takes four bytes: an opcode and three operands.
// Accesses are drawn from a few sets' worth of lines so that sets fill
// and evict.
func runDifferential(t *testing.T, cfg Config, ops []byte) {
	t.Helper()
	regNew, regRef := obs.NewRegistry(), obs.NewRegistry()
	cfgNew, cfgRef := cfg, cfg
	cfgNew.Obs, cfgRef.Obs = regNew, regRef
	got, want := New(cfgNew), newRef(cfgRef)
	d := got.Config()
	addrOf := func(hi, lo byte) uint64 {
		line := uint64(hi)*uint64(d.Sets) + uint64(lo%4)
		return line*uint64(d.LineSize) + uint64(lo)%uint64(d.LineSize)
	}
	var addrs []uint64
	for n := 0; len(ops) >= 4; n, ops = n+1, ops[4:] {
		op, a, b, x := ops[0], ops[1], ops[2], ops[3]
		actor := int(a % 6)
		addr := addrOf(b, x)
		switch op % 6 {
		case 0, 1:
			if g, w := got.Access(actor, addr), want.Access(actor, addr); g != w {
				t.Fatalf("op %d: Access(%d, %#x) = %+v, reference %+v", n, actor, addr, g, w)
			}
			addrs = append(addrs, addr)
		case 2:
			if g, w := got.Probe(actor, addr), want.Probe(actor, addr); g != w {
				t.Fatalf("op %d: Probe(%d, %#x) = %d, reference %d", n, actor, addr, g, w)
			}
		case 3:
			got.Flush(addr)
			want.Flush(addr)
		case 4:
			// Masks include 0 (every way) and bits beyond the associativity.
			mask := uint64(b) | uint64(x)<<56
			got.SetCoSMask(int(a%4), mask)
			want.SetCoSMask(int(a%4), mask)
		case 5:
			got.AssignActor(actor, int(b%4))
			want.AssignActor(actor, int(b%4))
		}
		if g, w := got.Contains(addr), want.Contains(addr); g != w {
			t.Fatalf("op %d: Contains(%#x) = %v, reference %v", n, addr, g, w)
		}
	}
	for actor := 0; actor < 6; actor++ {
		for _, addr := range addrs {
			if g, w := got.OccupancyOf(actor, addr), want.OccupancyOf(actor, addr); g != w {
				t.Fatalf("OccupancyOf(%d, %#x) = %d, reference %d", actor, addr, g, w)
			}
		}
	}
	if !reflect.DeepEqual(got.Heatmap(), want.Heatmap()) {
		t.Fatal("Heatmap differs from the reference")
	}
	got.Publish()
	if g, w := regNew.Snapshot().Counters, regRef.Snapshot().Counters; !reflect.DeepEqual(g, w) {
		t.Fatalf("counters %v, reference %v", g, w)
	}
}

func TestCacheDifferential(t *testing.T) {
	for g := range diffGeometries {
		for _, pol := range []Policy{LRU, TreePLRU, RandomRepl} {
			for j := range diffJitters {
				for _, outliers := range []uint8{0, 0x80} {
					sel := uint8(g) | uint8(pol)<<3 | uint8(j)<<5 | outliers
					cfg := diffConfig(sel, int64(sel))
					name := fmt.Sprintf("geom%d/%v/outliers=%v", g, pol, outliers != 0)
					if j > 0 { // the default jitter keeps the shorter name
						name += fmt.Sprintf("/jitter=%d", cfg.Jitter)
					}
					t.Run(name, func(t *testing.T) {
						ops := make([]byte, 4*20000)
						rand.New(rand.NewSource(int64(sel))).Read(ops)
						runDifferential(t, cfg, ops)
					})
				}
			}
		}
	}
}

func FuzzCacheDifferential(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{0, 1, 2, 3, 0, 1, 2, 3, 3, 1, 2, 3, 0, 1, 2, 3})
	f.Add(uint8(1|1<<3), int64(2), []byte{4, 1, 1, 0, 5, 2, 1, 0, 0, 2, 9, 9, 0, 2, 10, 9, 0, 2, 11, 9})
	f.Add(uint8(3|2<<3), int64(3), []byte{1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 2, 0, 2, 0, 0, 0, 4, 0, 0, 0})
	f.Add(uint8(2|0x80), int64(4), []byte{0, 3, 200, 7, 2, 3, 200, 7, 4, 3, 0, 1, 0, 3, 201, 7})
	f.Add(uint8(1|2<<5), int64(5), []byte{0, 1, 2, 3, 2, 1, 2, 3, 0, 4, 2, 3, 2, 4, 2, 3})
	f.Fuzz(func(t *testing.T, sel uint8, seed int64, ops []byte) {
		runDifferential(t, diffConfig(sel, seed), ops)
	})
}
