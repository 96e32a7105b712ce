// Package lzw implements an ncompress-style LZW compressor and
// decompressor with the exact hash-probe structure the paper analyzes
// (§IV-C, Listing 2): each consumed input byte probes
//
//	hp = (c << 9) ^ ent
//
// in an open-addressed hash table, leaking hp (minus the cache line's low
// bits) through the cache channel. The Replayer type re-derives the
// compressor's deterministic ent sequence from recovered plaintext, which
// is what makes full input recovery possible.
package lzw

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"github.com/zipchannel/zipchannel/internal/compress/huffcoding"
)

// Dictionary geometry, following ncompress with the paper's 9-bit probe
// shift.
const (
	ProbeShift = 9
	MaxBits    = 16
	MaxCodes   = 1 << MaxBits
	firstFree  = 257 // 0-255 literals, 256 = CLEAR
	clearCode  = 256
	initWidth  = 9
	// HTabSize covers hp = (c<<9)^ent for 8-bit c and 16-bit ent.
	HTabSize = 1 << 17
)

// Tracer observes the compressor's secret-dependent hash probes.
type Tracer interface {
	// Probe fires for each hash-table probe with the full hp value;
	// primary marks the first probe for the current input byte (the
	// Listing 2 access recovery relies on).
	Probe(hp uint64, primary bool)
}

// dict is the shared compressor state: Compress and Replayer step it
// identically, so the recovery replay cannot diverge from the encoder.
//
// Each htab slot holds gen<<24 | fcode, where fcode = ent<<8 | c fits in
// 24 bits. A slot tagged with another generation is free, so a reset is
// gen++ and the 2^17-slot table is cleared only when gen wraps: a call
// pays for the slots its input fills, not for the whole table.
type dict struct {
	htab    []uint32
	codetab []uint16
	gen     uint32 // 1..255; 0 never tags a live slot
	ent     uint32
	next    int
	started bool
	tracer  Tracer
}

func newDict() *dict {
	return &dict{
		htab:    make([]uint32, HTabSize),
		codetab: make([]uint16, HTabSize),
		gen:     1,
		next:    firstFree,
	}
}

// reset frees every slot and restarts code assignment, both at a
// mid-stream CLEAR and between calls.
func (d *dict) reset() {
	d.gen++
	if d.gen == 1<<8 {
		clear(d.htab)
		d.gen = 1
	}
	d.next = firstFree
}

// dicts holds compressor tables between Compress calls.
var dicts = sync.Pool{New: func() any { return newDict() }}

// step consumes one input byte. It returns (emit, code, full): when emit
// is true the compressor outputs code before switching to the new string;
// full reports that the code space just filled (caller emits CLEAR and
// resets).
func (d *dict) step(c byte) (emit bool, code uint16, full bool) {
	if !d.started {
		d.started = true
		d.ent = uint32(c)
		return false, 0, false
	}
	key := d.gen<<24 | d.ent<<8 | uint32(c)
	hp := (uint64(c) << ProbeShift) ^ uint64(d.ent)
	if d.tracer != nil {
		d.tracer.Probe(hp, true)
	}
	if d.htab[hp] == key {
		d.ent = uint32(d.codetab[hp])
		return false, 0, false
	}
	if d.htab[hp]>>24 == d.gen {
		// Secondary probing, ncompress style. ncompress relies on a prime
		// HSIZE so that any displacement cycles through the whole table;
		// with our power-of-two table the displacement must be odd for
		// the same guarantee (an even stride over 2^17 slots visits only
		// a subgroup and can spin forever once that subgroup fills).
		disp := ((uint64(HTabSize) - hp) % HTabSize) | 1
		for {
			if hp < disp {
				hp += HTabSize
			}
			hp -= disp
			if d.tracer != nil {
				d.tracer.Probe(hp, false)
			}
			if d.htab[hp] == key {
				d.ent = uint32(d.codetab[hp])
				return false, 0, false
			}
			if d.htab[hp]>>24 != d.gen {
				break
			}
		}
	}
	// Free slot: output the current string's code, insert, restart at c.
	code = uint16(d.ent)
	if d.next < MaxCodes {
		d.htab[hp] = key
		d.codetab[hp] = uint16(d.next)
		d.next++
	}
	full = d.next >= MaxCodes
	d.ent = uint32(c)
	return true, code, full
}

// Compress encodes src: a 4-byte length header, then variable-width
// (9..16 bit) codes, with CLEAR emitted when the code space fills.
func Compress(src []byte, tracer Tracer) ([]byte, error) {
	d := dicts.Get().(*dict)
	out := d.compress(src, tracer)
	dicts.Put(d)
	return out, nil
}

// compress is Compress on d. It first resets d, so nothing an earlier
// call left in d can reach this call's output or probes.
func (d *dict) compress(src []byte, tracer Tracer) []byte {
	d.reset()
	d.ent, d.started, d.tracer = 0, false, tracer
	var w huffcoding.BitWriter
	w.WriteBits(uint32(len(src)), 32)
	width := uint(initWidth)

	emit := func(code uint16) {
		// Width grows when the next code to be assigned no longer fits;
		// the decoder mirrors this one entry earlier (it lags one insert).
		w.WriteBits(uint32(code), width)
	}
	for _, c := range src {
		doEmit, code, full := d.step(c)
		if doEmit {
			emit(code)
			if full {
				emit(clearCode)
				d.reset()
				width = initWidth
			} else if d.next > (1 << width) {
				width++
			}
		}
	}
	if d.started {
		emit(uint16(d.ent))
	}
	d.tracer = nil
	return w.Bytes()
}

// ErrCorrupt reports a malformed stream.
var ErrCorrupt = errors.New("lzw: corrupt stream")

// maxPrealloc bounds how much output buffer the decoder reserves on the
// word of the stream's (attacker-controlled) size header alone.
const maxPrealloc = 1 << 20

// Decompress inverts Compress.
func Decompress(data []byte) ([]byte, error) {
	r := huffcoding.NewBitReader(data)
	size, err := r.ReadBits(32)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// size is untrusted header data: clamp the pre-allocation so a
	// corrupted stream cannot demand gigabytes up front (the decode
	// loop appends and re-checks the exact size at the end).
	capHint := int64(size)
	if capHint > maxPrealloc {
		capHint = maxPrealloc
	}
	out := make([]byte, 0, capHint)
	if size == 0 {
		return out, nil
	}

	// Each code takes at least initWidth bits and defines at most one
	// entry, so the stream cannot reach past this many codes.
	nCodes := min(firstFree+8*len(data)/initWidth+1, MaxCodes)
	prefix := make([]uint16, nCodes)
	suffix := make([]byte, nCodes)
	next := firstFree
	width := uint(initWidth)

	prevCode := -1
	prevStart := 0 // out[prevStart:start] is the previous code's string
	for uint32(len(out)) < size {
		v, err := r.ReadBits(width)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		code := int(v)
		if code == clearCode {
			next = firstFree
			width = initWidth
			prevCode = -1
			continue
		}
		start := len(out)
		switch {
		case prevCode < 0:
			if code > 255 {
				return nil, fmt.Errorf("%w: first code %d not a literal", ErrCorrupt, code)
			}
			out = append(out, byte(code))
		case code < next:
			// Walk the prefix chain, appending the string backwards,
			// then reverse it in place.
			for c := code; ; c = int(prefix[c]) {
				if c < 256 {
					out = append(out, byte(c))
					break
				}
				if c >= next {
					return nil, fmt.Errorf("%w: code %d >= next %d", ErrCorrupt, c, next)
				}
				out = append(out, suffix[c])
			}
			slices.Reverse(out[start:])
		case code == next:
			// KwKwK: the code being defined right now.
			out = append(out, out[prevStart:start]...)
			out = append(out, out[prevStart])
		default:
			return nil, fmt.Errorf("%w: code %d ahead of dictionary (%d)", ErrCorrupt, code, next)
		}
		if prevCode >= 0 && next < MaxCodes {
			prefix[next] = uint16(prevCode)
			suffix[next] = out[start]
			next++
			// Mirror the encoder's width growth: the encoder is one
			// insert ahead of the decoder at each code boundary.
			if next+1 > (1<<width) && width < MaxBits {
				width++
			}
		}
		prevCode = code
		prevStart = start
	}
	if uint32(len(out)) != size {
		return nil, fmt.Errorf("%w: size mismatch %d != %d", ErrCorrupt, len(out), size)
	}
	return out, nil
}

// Replayer reproduces the compressor's ent sequence from plaintext: the
// recovery.EntReplayer for this implementation (§IV-C's "knowledge of all
// previous input bytes allows the attacker to compute all dictionary
// entries in the same manner as the compressor").
type Replayer struct {
	d *dict
}

// NewReplayer starts a replay with the (guessed) first plaintext byte.
func NewReplayer(first byte) *Replayer {
	rep := &Replayer{d: newDict()}
	rep.d.step(first)
	return rep
}

// Ent returns the ent value the compressor holds before consuming the
// next byte.
func (r *Replayer) Ent() uint32 { return r.d.ent }

// Push advances the replayed dictionary by one plaintext byte.
func (r *Replayer) Push(c byte) {
	_, _, full := r.d.step(c)
	if full {
		r.d.reset()
	}
}
