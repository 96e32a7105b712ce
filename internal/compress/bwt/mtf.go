package bwt

import "fmt"

// Move-to-front and zero-run (RUNA/RUNB) coding: the post-BWT entropy
// stages of bzip2. The MTF output is dominated by zeros; zero runs are
// encoded in bijective base 2 over two dedicated symbols, exactly as
// bzip2 does.

// Symbol alphabet after zero-run coding: RUNA, RUNB, then MTF values
// 1..255 shifted by one, then EOB.
const (
	symRunA   = 0
	symRunB   = 1
	symEOB    = 258
	numMTFSym = 259
)

// mtfEncode applies a 256-symbol move-to-front transform.
func mtfEncode(src []byte) []byte {
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	out := make([]byte, len(src))
	for i, b := range src {
		var pos int
		for table[pos] != b {
			pos++
		}
		out[i] = byte(pos)
		copy(table[1:pos+1], table[:pos])
		table[0] = b
	}
	return out
}

// mtfDecode inverts mtfEncode.
func mtfDecode(src []byte) []byte {
	var table [256]byte
	for i := range table {
		table[i] = byte(i)
	}
	out := make([]byte, len(src))
	for i, pos := range src {
		b := table[pos]
		out[i] = b
		copy(table[1:int(pos)+1], table[:int(pos)])
		table[0] = b
	}
	return out
}

// zrleEncode converts MTF output to the RUNA/RUNB symbol stream: runs of
// zeros become bijective-base-2 digits, nonzero value v becomes symbol
// v+1, and EOB terminates.
func zrleEncode(mtf []byte) []uint16 {
	out := make([]uint16, 0, len(mtf)/2+2)
	emitRun := func(r int) {
		for r > 0 {
			if r&1 == 1 {
				out = append(out, symRunA)
				r = (r - 1) / 2
			} else {
				out = append(out, symRunB)
				r = (r - 2) / 2
			}
		}
	}
	run := 0
	for _, v := range mtf {
		if v == 0 {
			run++
			continue
		}
		emitRun(run)
		run = 0
		out = append(out, uint16(v)+1)
	}
	emitRun(run)
	out = append(out, symEOB)
	return out
}

// zrleDecode inverts zrleEncode, stopping at EOB. It returns the MTF
// byte stream and the number of symbols consumed. n is the block length
// the stream declares; a stream that decodes to more bytes is corrupt,
// and is rejected before the excess is allocated, since every run digit
// doubles the run and a few dozen of them would ask for gigabytes.
func zrleDecode(syms []uint16, n int) ([]byte, int, error) {
	var out []byte
	run, mult := 0, 1
	flush := func() {
		for i := 0; i < run; i++ {
			out = append(out, 0)
		}
		run, mult = 0, 1
	}
	for i, s := range syms {
		switch {
		case s == symRunA:
			run += mult
			mult *= 2
		case s == symRunB:
			run += 2 * mult
			mult *= 2
		case s == symEOB:
			flush()
			return out, i + 1, nil
		case s <= 256: // MTF values 1..255
			flush()
			out = append(out, byte(s-1))
		default:
			return nil, 0, ErrCorrupt
		}
		// A run that passed this check is at most n, and mult at most
		// run+1, so the next digit cannot overflow either.
		if run > n-len(out) {
			return nil, 0, fmt.Errorf("%w: more than the declared %d bytes", ErrCorrupt, n)
		}
	}
	return nil, 0, ErrCorrupt
}
