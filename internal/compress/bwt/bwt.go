// Package bwt implements a bzip2-style block-sorting compressor and
// decompressor: RLE1, the Burrows-Wheeler transform with bzip2's
// mainSort/fallbackSort split (Fig 6 of the paper), move-to-front,
// zero-run coding, and canonical Huffman.
//
// Two properties of the original that the paper attacks are preserved
// faithfully:
//
//   - mainSort builds the 65537-entry 2-byte frequency table with the
//     sliding-pair loop of Listing 3 (§IV-D) — every ftab increment is
//     visible to the Tracer, which is how the survey and the SGX attack
//     couple to the real compressor; and
//   - the sorting control flow diverges on the input (Fig 6): full blocks
//     enter mainSort and abandon to fallbackSort when too repetitive,
//     short tail blocks go straight to fallbackSort — the §VI
//     fingerprinting signal.
package bwt

import (
	"errors"
	"fmt"

	"github.com/zipchannel/zipchannel/internal/compress/huffcoding"
)

// DefaultBlockSize is the per-block input size the paper describes
// ("Each block is 10,000 bytes", §VI).
const DefaultBlockSize = 10000

// DefaultWorkFactor scales mainSort's comparison budget (budget =
// WorkFactor * blockLen), the knob behind "too repetitive" abandonment.
const DefaultWorkFactor = 30

// ErrCorrupt reports a malformed compressed stream.
var ErrCorrupt = errors.New("bwt: corrupt stream")

// Tracer observes the compressor's input-dependent behaviour. All methods
// may be called many times; implementations must be cheap.
type Tracer interface {
	// BlockStart fires before each block with its index and raw size.
	BlockStart(index, rawLen int)
	// MainSortEnter fires when a block enters mainSort (Fig 6).
	MainSortEnter()
	// MainSortAbandon fires when mainSort gives up mid-way.
	MainSortAbandon(workDone int)
	// FallbackSortEnter fires when a block (or an abandoned block)
	// enters fallbackSort.
	FallbackSortEnter()
	// FtabInc fires per frequency-table increment with the 2-byte pair
	// index j — the Listing 3 gadget stream.
	FtabInc(j uint16)
	// Work reports abstract work units, the timeline currency for the
	// fingerprinting attack's timing model.
	Work(units int)
}

// BaseTracer is a no-op Tracer for embedding.
type BaseTracer struct{}

// BlockStart implements Tracer.
func (BaseTracer) BlockStart(int, int) {}

// MainSortEnter implements Tracer.
func (BaseTracer) MainSortEnter() {}

// MainSortAbandon implements Tracer.
func (BaseTracer) MainSortAbandon(int) {}

// FallbackSortEnter implements Tracer.
func (BaseTracer) FallbackSortEnter() {}

// FtabInc implements Tracer.
func (BaseTracer) FtabInc(uint16) {}

// Work implements Tracer.
func (BaseTracer) Work(int) {}

// Options tunes compression.
type Options struct {
	// BlockSize is the input bytes per block (default 10000).
	BlockSize int
	// WorkFactor scales mainSort's budget (default 30).
	WorkFactor int
	// Tracer observes input-dependent behaviour (may be nil). Without
	// one, blocks are sorted by a faster comparison-free order where
	// that gives the same bytes, and no Work is counted.
	Tracer Tracer
}

func (o Options) withDefaults() Options {
	if o.BlockSize <= 0 {
		o.BlockSize = DefaultBlockSize
	}
	if o.WorkFactor <= 0 {
		o.WorkFactor = DefaultWorkFactor
	}
	return o
}

const magic = 0x425a4732 // "BZG2"

// Compress encodes src.
func Compress(src []byte, opts Options) ([]byte, error) {
	opts = opts.withDefaults()
	var w huffcoding.BitWriter
	w.WriteBits(magic, 32)
	nBlocks := (len(src) + opts.BlockSize - 1) / opts.BlockSize
	w.WriteBits(uint32(nBlocks), 32)

	for bi := 0; bi < nBlocks; bi++ {
		lo := bi * opts.BlockSize
		hi := min(lo+opts.BlockSize, len(src))
		raw := src[lo:hi]
		if opts.Tracer != nil {
			opts.Tracer.BlockStart(bi, len(raw))
		}
		if err := compressBlock(&w, raw, hi-lo == opts.BlockSize, opts); err != nil {
			return nil, fmt.Errorf("bwt: block %d: %w", bi, err)
		}
	}
	return w.Bytes(), nil
}

func compressBlock(w *huffcoding.BitWriter, raw []byte, fullSize bool, opts Options) error {
	block := rle1Encode(raw)
	n := len(block)

	// Forward BWT: Fig 6 control flow lives in sortBlock.
	ptr := sortBlock(block, fullSize, opts.WorkFactor, opts.Tracer)
	last := make([]byte, n)
	origPtr := uint32(0)
	for i, p := range ptr {
		last[i] = block[(int(p)+n-1)%n]
		if p == 0 {
			origPtr = uint32(i)
		}
	}

	syms := zrleEncode(mtfEncode(last))

	w.WriteBits(uint32(n), 32)
	w.WriteBits(origPtr, 32)
	// Entropy stage: bzip2's multi-table Huffman with per-group selectors
	// (multitable.go).
	return encodeMultiTable(w, syms)
}

// Decompress inverts Compress.
func Decompress(data []byte) ([]byte, error) {
	r := huffcoding.NewBitReader(data)
	m, err := r.ReadBits(32)
	if err != nil || m != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	nBlocks, err := r.ReadBits(32)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	var out []byte
	for bi := uint32(0); bi < nBlocks; bi++ {
		raw, err := decompressBlock(r)
		if err != nil {
			return nil, fmt.Errorf("bwt: block %d: %w", bi, err)
		}
		out = append(out, raw...)
	}
	return out, nil
}

func decompressBlock(r *huffcoding.BitReader) ([]byte, error) {
	n32, err := r.ReadBits(32)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	n := int(n32)
	origPtr, err := r.ReadBits(32)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	syms, err := decodeMultiTable(r)
	if err != nil {
		return nil, err
	}
	mtf, _, err := zrleDecode(syms, n)
	if err != nil {
		return nil, err
	}
	last := mtfDecode(mtf)
	if len(last) != n {
		return nil, fmt.Errorf("%w: block length %d != %d", ErrCorrupt, len(last), n)
	}
	if n == 0 {
		return nil, nil
	}
	if int(origPtr) >= n {
		return nil, fmt.Errorf("%w: origPtr out of range", ErrCorrupt)
	}
	block := inverseBWT(last, int(origPtr))
	return rle1Decode(block)
}

// inverseBWT reconstructs the block from its BWT last column and the row
// index of the original rotation, via the standard LF mapping.
func inverseBWT(last []byte, origPtr int) []byte {
	n := len(last)
	var cftab [257]int
	for _, b := range last {
		cftab[int(b)+1]++
	}
	for i := 1; i <= 256; i++ {
		cftab[i] += cftab[i-1]
	}
	tt := make([]int32, n)
	for i, b := range last {
		tt[cftab[b]] = int32(i)
		cftab[b]++
	}
	out := make([]byte, n)
	p := tt[origPtr]
	for k := 0; k < n; k++ {
		out[k] = last[p]
		p = tt[p]
	}
	return out
}
