package recovery

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestRecoverBzipMatchesReference checks RecoverBzip against the
// per-value arc-consistency loops it replaced, on noisy traces:
// misaligned and aligned ftab, dropped observations, and observations
// of the wrong line (including lines outside ftab).
func TestRecoverBzipMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		block := make([]byte, 1+rng.Intn(700))
		rng.Read(block)
		if seed%4 == 0 {
			for i := range block {
				block[i] = "the quick brown fox "[rng.Intn(20)]
			}
		}
		trace := bzipTraceFrom(block, uint64(rng.Intn(64)))
		for k := range trace {
			switch r := rng.Float64(); {
			case r < 0.05:
				trace[k] = UnknownObservation
			case r < 0.10:
				trace[k] = int64(rng.Intn(1<<18+8192)-4096) &^ 63
			}
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			got, err := RecoverBzip(trace, len(block), 64)
			if err != nil {
				t.Fatal(err)
			}
			want, err := recoverBzipRef(trace, len(block), 64)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("RecoverBzip differs from the reference: %d vs %d corrected", got.Corrected, want.Corrected)
			}
		})
	}
}

// recoverBzipRef is RecoverBzip as first written: it tests every
// candidate pair value by value.
func recoverBzipRef(trace BzipTrace, n, lineSize int) (*BzipResult, error) {
	if len(trace) != n {
		return nil, fmt.Errorf("recovery: trace has %d observations for block of %d", len(trace), n)
	}
	if n == 0 {
		return &BzipResult{}, nil
	}
	ls := int64(lineSize)

	// Per-iteration j interval; iteration k handles block index i=n-1-k.
	type interval struct{ lo, hi int }
	jiv := make([]interval, n) // indexed by block index i
	for k := 0; k < n; k++ {
		i := n - 1 - k
		if trace[k] == UnknownObservation {
			jiv[i] = interval{0, 0xffff}
			continue
		}
		lo, hi := jInterval(trace[k], ls)
		jiv[i] = interval{lo, hi}
	}

	// Candidate sets per byte as 256-bit masks.
	cand := make([][4]uint64, n)
	full := [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	for i := range cand {
		cand[i] = full
	}
	has := func(m *[4]uint64, v int) bool { return m[v/64]&(1<<uint(v%64)) != 0 }
	unset := func(m *[4]uint64, v int) { m[v/64] &^= 1 << uint(v%64) }
	count := func(m *[4]uint64) int {
		c := 0
		for _, w := range m {
			for ; w != 0; w &= w - 1 {
				c++
			}
		}
		return c
	}

	// Initial constraint from each interval's high byte.
	for i := 0; i < n; i++ {
		lo, hi := jiv[i].lo>>8, jiv[i].hi>>8
		for v := 0; v < 256; v++ {
			if v < lo || v > hi {
				unset(&cand[i], v)
			}
		}
	}

	// Remember which bytes the direct observation alone pinned down, so
	// the result can report how many the redundancy passes corrected.
	directKnown := make([]bool, n)
	for i := 0; i < n; i++ {
		directKnown[i] = count(&cand[i]) == 1
	}

	// Arc-consistency sweeps around the ring: j_i = b[i]<<8 | b[i+1].
	for pass := 0; pass < 4; pass++ {
		changed := false
		for i := 0; i < n; i++ {
			next := (i + 1) % n
			iv := jiv[i]
			// Refine b[i]: keep x only if some y in cand[next] fits.
			for x := 0; x < 256; x++ {
				if !has(&cand[i], x) {
					continue
				}
				lo, hi := iv.lo-(x<<8), iv.hi-(x<<8)
				ok := false
				for y := max(lo, 0); y <= min(hi, 255); y++ {
					if has(&cand[next], y) {
						ok = true
						break
					}
				}
				if !ok {
					unset(&cand[i], x)
					changed = true
				}
			}
			// Refine b[next]: keep y only if some x in cand[i] fits.
			for y := 0; y < 256; y++ {
				if !has(&cand[next], y) {
					continue
				}
				ok := false
				for x := 0; x < 256; x++ {
					if !has(&cand[i], x) {
						continue
					}
					j := x<<8 | y
					if j >= iv.lo && j <= iv.hi {
						ok = true
						break
					}
				}
				if !ok {
					unset(&cand[next], y)
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}

	res := &BzipResult{Block: make([]byte, n), Known: make([]bool, n)}
	for i := 0; i < n; i++ {
		c := count(&cand[i])
		switch {
		case c == 1:
			res.Known[i] = true
			if !directKnown[i] {
				res.Corrected++
			}
			for v := 0; v < 256; v++ {
				if has(&cand[i], v) {
					res.Block[i] = byte(v)
					break
				}
			}
		case c == 0:
			// Contradiction (noisy trace): fall back to the raw interval's
			// midpoint high byte.
			res.Block[i] = byte(((jiv[i].lo + jiv[i].hi) / 2) >> 8)
		default:
			// Ambiguous: pick the lowest candidate (§IV-D notes the
			// attacker at least knows the 0x00-0x03 vs 0xf4-0xff class).
			for v := 0; v < 256; v++ {
				if has(&cand[i], v) {
					res.Block[i] = byte(v)
					break
				}
			}
		}
	}
	return res, nil
}
