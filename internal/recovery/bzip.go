// Package recovery implements the algorithmic computations that convert
// cache-line observations back into plaintext (§IV-B, §IV-C, §IV-D and
// §V-D of the paper): the bzip2 histogram inversion with off-by-one
// ambiguity resolution, the ncompress dictionary replay with the
// 8-candidate first byte, and the zlib rolling-hash partial recovery.
package recovery

import (
	"fmt"
	"math/bits"
)

// UnknownObservation marks an iteration whose cache measurement was lost
// (noise, exhausted frames); recovery treats it as unconstrained.
const UnknownObservation = int64(-1 << 62)

// BzipTrace is the attacker's view of one bzip2 histogram pass: element k
// is the byte offset from ftab's base of the cache line touched in loop
// iteration k (which processes block index i = n-1-k), or
// UnknownObservation. Offsets may be negative when ftab is not cache-line
// aligned (the line containing ftab[0] starts before ftab).
type BzipTrace []int64

// BzipResult is the recovered block with a per-byte confidence mask.
type BzipResult struct {
	Block []byte
	// Known[i] is true when the candidate set for byte i collapsed to a
	// single value; false bytes were guessed from the remaining interval.
	Known []bool
	// Corrected counts bytes that the direct observation left ambiguous
	// but the cross-iteration redundancy (§V-D's error correction)
	// collapsed to a single value.
	Corrected int
}

// KnownCount returns how many bytes were recovered with certainty.
func (r *BzipResult) KnownCount() int {
	n := 0
	for _, k := range r.Known {
		if k {
			n++
		}
	}
	return n
}

// Accuracy compares against the ground truth and returns the fraction of
// correct bytes and of correct bits.
func (r *BzipResult) Accuracy(truth []byte) (byteAcc, bitAcc float64) {
	if len(truth) == 0 {
		return 0, 0
	}
	okBytes, okBits := 0, 0
	for i := range truth {
		if i >= len(r.Block) {
			break
		}
		if r.Block[i] == truth[i] {
			okBytes++
		}
		diff := r.Block[i] ^ truth[i]
		for b := 0; b < 8; b++ {
			if diff&(1<<uint(b)) == 0 {
				okBits++
			}
		}
	}
	return float64(okBytes) / float64(len(truth)), float64(okBits) / float64(len(truth)*8)
}

// jInterval returns the inclusive range of j values compatible with a
// line offset observation: 4j lands in [off, off+lineSize-1].
func jInterval(off int64, lineSize int64) (lo, hi int) {
	l := (off + 3) / 4 // ceil(off/4); negative offsets clamp to 0 below
	h := (off + lineSize - 1) / 4
	if l < 0 {
		l = 0
	}
	if h > 0xffff {
		h = 0xffff
	}
	return int(l), int(h)
}

// RecoverBzip inverts the ftab trace (§IV-D): iteration k constrains
// j = block[i]<<8 | block[(i+1)%n] to a 16-value interval; each byte is
// constrained twice (as a high byte in iteration for i, as a low byte in
// the iteration for i-1), and the redundancy across consecutive
// iterations resolves the off-by-one ambiguity of a misaligned ftab
// (§V-D's error correction). lineSize is the cache line size (64).
func RecoverBzip(trace BzipTrace, n, lineSize int) (*BzipResult, error) {
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

	// Candidate sets per byte, each constrained by its interval's high byte.
	cand := make([]byteSet, n)
	for i := range cand {
		cand[i].addRange(jiv[i].lo>>8, jiv[i].hi>>8)
	}

	// Remember which bytes the direct observation alone pinned down, so
	// the result can report how many the redundancy passes corrected.
	directKnown := make([]bool, n)
	for i := 0; i < n; i++ {
		directKnown[i] = cand[i].count() == 1
	}

	// Arc-consistency sweeps around the ring: j_i = b[i]<<8 | b[i+1].
	for pass := 0; pass < 4; pass++ {
		changed := false
		for i := 0; i < n; i++ {
			next := (i + 1) % n
			iv := jiv[i]
			// Refine b[i]: keep x only if some y in cand[next] fits.
			for m := cand[i]; ; {
				x := m.pop()
				if x < 0 {
					break
				}
				if !cand[next].anyIn(iv.lo-(x<<8), iv.hi-(x<<8)) {
					cand[i].remove(x)
					changed = true
				}
			}
			// Refine b[next]: keep y only if some x in cand[i] fits, i.e.
			// x in [ceil((lo-y)/256), floor((hi-y)/256)].
			for m := cand[next]; ; {
				y := m.pop()
				if y < 0 {
					break
				}
				if !cand[i].anyIn((iv.lo-y+255)>>8, (iv.hi-y)>>8) {
					cand[next].remove(y)
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
		switch m := cand[i]; m.count() {
		case 1:
			res.Known[i] = true
			if !directKnown[i] {
				res.Corrected++
			}
			res.Block[i] = byte(m.pop())
		case 0:
			// Contradiction (noisy trace): fall back to the raw interval's
			// midpoint high byte.
			res.Block[i] = byte(((jiv[i].lo + jiv[i].hi) / 2) >> 8)
		default:
			// Ambiguous: pick the lowest candidate (§IV-D notes the
			// attacker at least knows the 0x00-0x03 vs 0xf4-0xff class).
			res.Block[i] = byte(m.pop())
		}
	}
	return res, nil
}

// byteSet is a set of byte values as a 256-bit mask.
type byteSet [4]uint64

// wordRange returns the bits of word w that fall in [lo, hi].
func wordRange(w, lo, hi int) uint64 {
	m := ^uint64(0)
	if lo > w*64 {
		m <<= uint(lo - w*64)
	}
	if hi < w*64+63 {
		m &= ^uint64(0) >> uint(w*64+63-hi)
	}
	return m
}

// addRange adds the values in [lo, hi] ∩ [0, 255].
func (s *byteSet) addRange(lo, hi int) {
	lo, hi = max(lo, 0), min(hi, 255)
	for w := lo / 64; lo <= hi && w <= hi/64; w++ {
		s[w] |= wordRange(w, lo, hi)
	}
}

// anyIn reports whether s holds a value in [lo, hi].
func (s *byteSet) anyIn(lo, hi int) bool {
	lo, hi = max(lo, 0), min(hi, 255)
	for w := lo / 64; lo <= hi && w <= hi/64; w++ {
		if s[w]&wordRange(w, lo, hi) != 0 {
			return true
		}
	}
	return false
}

func (s *byteSet) remove(v int) { s[v/64] &^= 1 << uint(v%64) }

func (s *byteSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// pop removes and returns the lowest value, or -1 when s is empty.
func (s *byteSet) pop() int {
	for w := range s {
		if s[w] != 0 {
			v := bits.TrailingZeros64(s[w])
			s[w] &= s[w] - 1
			return w*64 + v
		}
	}
	return -1
}
