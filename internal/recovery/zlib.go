package recovery

// ZlibKnownBits is the per-byte partial information the zlib hash-head
// gadget leaks without charset assumptions (§IV-B): for each input byte,
// which bits are known and their values.
type ZlibKnownBits struct {
	Value byte // known bits' values, unknown bits zero
	Mask  byte // 1 bits are known
}

// zlib hash parameters (DEFLATE reference compressor / our lz77 package).
const (
	zlibHashShift = 5
	zlibHashMask  = 0x7fff
	// zlibObservedShift is how many low hash bits the cache channel hides:
	// the 2-byte head entries leave hash bits >= 5 observable on 64-byte
	// lines (addr = head + h*2; addr bits >= 6 visible).
	zlibObservedShift = 5
)

// RecoverZlib inverts a trace of observed hash-head lines. obs[k] is
// (h_k >> 5) where h_k is the 15-bit rolling hash after inserting input
// bytes k, k+1, k+2:
//
//	h_k = ((h_{k-1} << 5) ^ w[k+2]) & 0x7fff
//
// Without charset knowledge, bits 3-4 of each interior byte are exposed
// directly (the paper's 25%: 2 of 8 bits): h_k's bits 8-9 equal
// h_{k-1}'s bits 3-4, which are bits 3-4 of w[k+1] xor nothing (the xor
// contributions from older bytes were shifted past bit 4 already).
//
// With a known charset high-3 (e.g. 011 for lowercase ASCII), the xor of
// w's bits 5-7 into h's bits 5-7 can be undone and every interior byte is
// fully recovered (§IV-B's "leak the entire content" claim).
func RecoverZlib(obs []uint16, n int, charsetHigh3 byte, haveCharset bool) []ZlibKnownBits {
	out := make([]ZlibKnownBits, n)
	if len(obs) == 0 {
		return out
	}
	// Observation k tells us bits 5-14 of h_k. h_k's bit layout:
	//   bits 0-4:  w[k+2] bits 0-4                          (hidden)
	//   bits 5-7:  w[k+2] bits 5-7 ^ h_{k-1} bits 0-2
	//   bits 8-14: h_{k-1} bits 3-9
	// and h_{k-1} bits 0-4 = w[k+1] bits 0-4,
	//     h_{k-1} bits 3-4 = w[k+1] bits 3-4  -> direct leak via h_k bits 8-9.
	for k := 0; k < len(obs) && k+1 < n; k++ {
		h := uint32(obs[k]) << zlibObservedShift // bits 5-14 of h_k known
		byteIdx := k + 1                         // w[k+1], the "middle" byte
		// Direct bits: w[k+1] bits 3-4 from h_k bits 8-9.
		direct := byte(h>>8) & 0x03 << 3
		out[byteIdx].Value |= direct
		out[byteIdx].Mask |= 0x18

		if !haveCharset {
			continue
		}
		// Charset mode: w[k+2] bits 5-7 are known constants, so h_k bits
		// 5-7 reveal h_{k-1} bits 0-2 = w[k+1] bits 0-2.
		low3 := (byte(h>>5) ^ charsetHigh3>>5) & 0x07
		out[byteIdx].Value |= low3
		out[byteIdx].Mask |= 0x07
		// h_k bits 10-14 = h_{k-1} bits 5-9. h_{k-1} bits 5-7 =
		// w[k+1] bits 5-7 ^ h_{k-2} bits 0-2; with charset, w[k+1] bits
		// 5-7 are the known constant anyway.
		out[byteIdx].Value |= charsetHigh3 & 0xe0
		out[byteIdx].Mask |= 0xe0
	}
	return out
}

// ZlibLeakFraction returns the fraction of all input bits recovered
// correctly, given ground truth.
func ZlibLeakFraction(rec []ZlibKnownBits, truth []byte) float64 {
	if len(truth) == 0 {
		return 0
	}
	known := 0
	for i, r := range rec {
		if i >= len(truth) {
			break
		}
		for b := 0; b < 8; b++ {
			bit := byte(1) << uint(b)
			if r.Mask&bit != 0 && r.Value&bit == truth[i]&bit {
				known++
			}
		}
	}
	return float64(known) / float64(len(truth)*8)
}

// SimulateZlibTrace computes the gadget's observable trace for a given
// input: the ground-truth generator the recovery tests use (the lz77
// package produces the same values through its instrumented compressor).
func SimulateZlibTrace(input []byte) []uint16 {
	if len(input) < 3 {
		return nil
	}
	h := (uint32(input[0])<<zlibHashShift ^ uint32(input[1])) & zlibHashMask
	obs := make([]uint16, 0, len(input)-2)
	for k := 0; k+2 < len(input); k++ {
		h = ((h << zlibHashShift) ^ uint32(input[k+2])) & zlibHashMask
		obs = append(obs, uint16(h>>zlibObservedShift))
	}
	return obs
}
