package pagestore

import (
	"fmt"

	"github.com/zipchannel/zipchannel/internal/compress/bwt"
	"github.com/zipchannel/zipchannel/internal/compress/codec"
	"github.com/zipchannel/zipchannel/internal/compress/lz77"
	"github.com/zipchannel/zipchannel/internal/compress/lzw"
)

// The cost model: sim steps charged per store/load, derived from the
// compressors' *actual* work rather than a synthetic per-byte constant.
// This is the load-bearing property of the subsystem — the
// compression-time side channel (Schwarzl et al., PAPERS.md) only
// exists because the time a real compressor spends depends on the data
// it compresses, and here that dependence is inherited directly from
// the matcher: every step below is charged because a specific piece of
// real control flow ran (a hash-chain dereference, a match extension, a
// token encode), so the oracle an attacker reads is the same shape a
// wall-clock timer would see against zlib-backed ZRAM.
//
// Weights are small integers chosen to mirror the relative cost of the
// underlying operations in a real implementation:
//
//   - stepsPerInsert (1): INSERT_STRING is two array stores.
//   - stepsPerFollow (2): each chain candidate is a dependent pointer
//     chase plus a bounds/window check — the classic cache-miss-prone
//     walk of deflate's longest_match.
//   - one step per 8 compared bytes: match extension is word-at-a-time.
//   - stepsPerToken (24): per-symbol entropy coding (two Huffman table
//     lookups, extra-bit computation, bit-writer pushes) dominates the
//     emit path; this is also what makes the CRIME-style oracle robust,
//     because a one-token difference survives byte-granularity output
//     rounding that can hide a saved literal.
//   - stepsPerOutByte (8): bit packing and buffer writes are per output
//     byte, making store time grow with incompressibility.
//
// lzw charges its dictionary probes (the §IV-C hash walk) and bwt its
// suffix-sort Work units (the §IV-D main/fallback sort effort), so all
// three codecs expose a real, data-dependent timing surface.
const (
	stepsPerInsert  = 1
	stepsPerFollow  = 2
	stepsPerCmpWord = 1 // per 8 compared bytes
	stepsPerToken   = 24
	stepsPerOutByte = 8
	stepsPerProbe   = 2 // lzw dictionary probe: hash + table load
	stepsPerWork    = 1 // bwt sort work unit

	// Load cost: decompression has no matcher — it is a linear copy
	// loop, 2 steps per compressed input byte (bit-reader pulls) and 4
	// per output byte (Huffman decode + append).
	loadStepsPerCompByte  = 2
	loadStepsPerPlainByte = 4
)

// probeCounter tallies lzw dictionary probes.
type probeCounter struct{ n int64 }

func (p *probeCounter) Probe(uint64, bool) { p.n++ }

// workCounter tallies bwt sort work units.
type workCounter struct {
	bwt.BaseTracer
	units int64
}

func (w *workCounter) Work(units int) { w.units += int64(units) }

// compressPage compresses one plaintext page with the named codec's
// default options (so the bytes are identical to what codec.Lookup
// produces) while accounting the work actually performed, and returns
// the compressed bytes plus the sim-step cost of the store.
func compressPage(name string, src []byte) (comp []byte, steps int64, err error) {
	switch name {
	case "lz77":
		var st lz77.MatchStats
		comp, err = lz77.Compress(src, lz77.Options{Lazy: true, Stats: &st})
		if err != nil {
			return nil, 0, err
		}
		steps = st.Inserts*stepsPerInsert +
			st.ChainFollows*stepsPerFollow +
			(st.MatchCmps/8)*stepsPerCmpWord +
			st.Tokens*stepsPerToken +
			int64(len(comp))*stepsPerOutByte
	case "lzw":
		var pc probeCounter
		comp, err = lzw.Compress(src, &pc)
		if err != nil {
			return nil, 0, err
		}
		steps = int64(len(src)) + // per-input-byte hash update
			pc.n*stepsPerProbe +
			int64(len(comp))*stepsPerOutByte
	case "bwt":
		var wc workCounter
		comp, err = bwt.Compress(src, bwt.Options{Tracer: &wc})
		if err != nil {
			return nil, 0, err
		}
		steps = wc.units*stepsPerWork +
			int64(len(comp))*stepsPerOutByte
	default:
		return nil, 0, fmt.Errorf("%w: %q (have %s)", ErrUnknownCodec, name, codec.NamesString())
	}
	return comp, steps, nil
}

// decompressPage inverts compressPage via the codec registry, charging
// the linear load cost. A corrupt stream must error, never panic: the
// decoders return ErrCorrupt-style errors on everything the fuzzers
// have found, and the recover below converts any escape hatch into an
// error so a hostile pool byte-flip can never take the store down.
func decompressPage(name string, comp []byte) (plain []byte, steps int64, err error) {
	c, ok := codec.Lookup(name)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrUnknownCodec, name)
	}
	defer func() {
		if r := recover(); r != nil {
			plain, steps = nil, 0
			err = fmt.Errorf("%w: decoder panic: %v", ErrCorrupt, r)
		}
	}()
	plain, err = c.Decompress(comp)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	steps = int64(len(comp))*loadStepsPerCompByte + int64(len(plain))*loadStepsPerPlainByte
	return plain, steps, nil
}
