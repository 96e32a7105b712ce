// Package lz77 implements a DEFLATE-style LZ77 compressor and
// decompressor with the exact hash-head structure the paper analyzes in
// Zlib (§IV-B): repetitions are found through a chained hash table whose
// hash is the 15-bit rolling function of three consecutive input bytes,
//
//	ins_h = ((ins_h << HashShift) ^ window[i+2]) & HashMask,
//
// and every INSERT_STRING updates head[ins_h] — the input-dependent store
// of Listing 1/Fig 2. A Tracer hook exposes those hash values so the
// survey experiment can feed the recovery code with the compressor's real
// access stream.
package lz77

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"github.com/zipchannel/zipchannel/internal/compress/huffcoding"
)

// Hash parameters, matching zlib's deflate with a 15-bit table.
const (
	HashBits  = 15
	HashShift = 5
	HashMask  = (1 << HashBits) - 1
	HashSize  = 1 << HashBits
)

// Matching parameters, matching DEFLATE.
const (
	MinMatch    = 3
	MaxMatch    = 258
	WindowSize  = 32768
	maxChainLen = 256 // how many chain links to follow per match attempt
)

// Tracer observes the compressor's secret-dependent accesses.
type Tracer interface {
	// HeadInsert fires on every head[ins_h] update with the full 15-bit
	// hash; the cache channel exposes ins_h >> 5 of it.
	HeadInsert(insH uint32, pos int)
}

// MatchStats accumulates the matcher's actual work during one Compress
// call: every counter below is incremented by real control flow in the
// hash-chain walk, so a cost model built on top of them inherits the
// same input dependence that makes compression time a side channel
// (Schwarzl et al.) — it is measured work, not a synthetic estimate.
// Counts reflect whichever matcher variant ran (the fast matcher skips
// extensions the reference one performs; selection stays identical).
type MatchStats struct {
	// Inserts is the number of INSERT_STRING executions (head/prev
	// updates) — one per position the matcher visited.
	Inserts int64
	// ChainFollows is the number of hash-chain candidates examined
	// across all match attempts.
	ChainFollows int64
	// MatchCmps is the number of bytes confirmed equal while extending
	// candidates (the matchLen walk).
	MatchCmps int64
	// Tokens is the number of literal + match tokens emitted.
	Tokens int64
	// MatchBytes is the number of input bytes covered by match tokens.
	MatchBytes int64
}

// nil-safe increment helpers so the hot path stays branch-cheap.
func (s *MatchStats) insert() {
	if s != nil {
		s.Inserts++
	}
}

func (s *MatchStats) follow() {
	if s != nil {
		s.ChainFollows++
	}
}

func (s *MatchStats) cmp(n int) {
	if s != nil {
		s.MatchCmps += int64(n)
	}
}

// Options tunes compression.
type Options struct {
	// Lazy enables zlib's deflate_slow lazy matching.
	Lazy bool
	// Tracer, if non-nil, receives gadget events.
	Tracer Tracer
	// Stats, if non-nil, accumulates the matcher's work counters (see
	// MatchStats). Purely additive: enabling it never changes the token
	// stream or output bytes.
	Stats *MatchStats
	// useRefMatcher selects the reference (byte-at-a-time) longest-match
	// scan instead of the optimized one. The two are selection-identical
	// by construction (see bestMatch); the differential test keeps that
	// honest on real corpora. In-package only.
	useRefMatcher bool
}

// Token stream symbols: literals 0-255, EOB 256, then length codes.
const (
	symEOB      = 256
	numLitLen   = 286
	numDistSyms = 30
)

// DEFLATE length code table: code -> (base length, extra bits).
var lengthCodes = [29]struct {
	base  int
	extra uint
}{
	{3, 0}, {4, 0}, {5, 0}, {6, 0}, {7, 0}, {8, 0}, {9, 0}, {10, 0},
	{11, 1}, {13, 1}, {15, 1}, {17, 1}, {19, 2}, {23, 2}, {27, 2}, {31, 2},
	{35, 3}, {43, 3}, {51, 3}, {59, 3}, {67, 4}, {83, 4}, {99, 4}, {115, 4},
	{131, 5}, {163, 5}, {195, 5}, {227, 5}, {258, 0},
}

// DEFLATE distance code table: code -> (base distance, extra bits).
var distCodes = [30]struct {
	base  int
	extra uint
}{
	{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 1}, {7, 1}, {9, 2}, {13, 2},
	{17, 3}, {25, 3}, {33, 4}, {49, 4}, {65, 5}, {97, 5}, {129, 6}, {193, 6},
	{257, 7}, {385, 7}, {513, 8}, {769, 8}, {1025, 9}, {1537, 9},
	{2049, 10}, {3073, 10}, {4097, 11}, {6145, 11}, {8193, 12}, {12289, 12},
	{16385, 13}, {24577, 13},
}

// O(1) code lookups, built once from the tables above (zlib keeps the
// same two arrays as _length_code and _dist_code). Lengths index
// directly; distances use a split table — direct for d <= 256, then one
// entry per 128-distance block, which is exact because every distance
// code base above 256 is 1 mod 128.
var (
	lengthCodeTab [MaxMatch + 1]uint8
	distCodeSmall [257]uint8
	distCodeLarge [256]uint8
)

func init() {
	for l := MinMatch; l <= MaxMatch; l++ {
		for i := len(lengthCodes) - 1; i >= 0; i-- {
			if l >= lengthCodes[i].base {
				lengthCodeTab[l] = uint8(i)
				break
			}
		}
	}
	code := func(d int) uint8 {
		for i := len(distCodes) - 1; i >= 0; i-- {
			if d >= distCodes[i].base {
				return uint8(i)
			}
		}
		return 0
	}
	for d := 1; d <= 256; d++ {
		distCodeSmall[d] = code(d)
	}
	for b := 2; b < 256; b++ {
		distCodeLarge[b] = code(b<<7 + 1)
	}
}

func lengthCode(l int) int {
	if l >= MinMatch && l <= MaxMatch {
		return int(lengthCodeTab[l])
	}
	return 0
}

func distCode(d int) int {
	if d <= 0 {
		return 0
	}
	if d <= 256 {
		return int(distCodeSmall[d])
	}
	if b := (d - 1) >> 7; b < 256 {
		return int(distCodeLarge[b])
	}
	return len(distCodes) - 1
}

type token struct {
	lit      byte
	length   int // 0 for literals
	distance int
}

// Compress encodes src. The output format is a self-contained
// DEFLATE-style stream: a header with the two code-length tables, then
// Huffman-coded literal/length and distance symbols with DEFLATE's extra
// bits. (Unlike real DEFLATE there is a single dynamic block and lengths
// are stored flat — documented divergence, see DESIGN.md.)
func Compress(src []byte, opts Options) ([]byte, error) {
	head := heads.Get().(*[HashSize]int32)
	tokens := tokenize(head, src, opts)
	heads.Put(head)
	if s := opts.Stats; s != nil {
		s.Tokens += int64(len(tokens))
		for _, t := range tokens {
			s.MatchBytes += int64(t.length)
		}
	}

	// Frequencies for the two trees.
	litFreq := make([]int64, numLitLen)
	distFreq := make([]int64, numDistSyms)
	for _, t := range tokens {
		if t.length == 0 {
			litFreq[t.lit]++
		} else {
			litFreq[257+lengthCode(t.length)]++
			distFreq[distCode(t.distance)]++
		}
	}
	litFreq[symEOB]++
	hasMatches := false
	for _, f := range distFreq {
		if f > 0 {
			hasMatches = true
			break
		}
	}
	if !hasMatches {
		distFreq[0] = 1 // keep the distance tree valid
	}

	var hb huffcoding.Builder
	litLens, err := hb.BuildLengths(litFreq, huffcoding.MaxCodeLen)
	if err != nil {
		return nil, fmt.Errorf("lz77: literal tree: %w", err)
	}
	distLens, err := hb.BuildLengths(distFreq, huffcoding.MaxCodeLen)
	if err != nil {
		return nil, fmt.Errorf("lz77: distance tree: %w", err)
	}
	litEnc, err := huffcoding.NewEncoder(litLens)
	if err != nil {
		return nil, err
	}
	distEnc, err := huffcoding.NewEncoder(distLens)
	if err != nil {
		return nil, err
	}

	var w huffcoding.BitWriter
	w.WriteBits(uint32(len(src)), 32)
	for _, l := range litLens {
		w.WriteBits(uint32(l), 4)
	}
	for _, l := range distLens {
		w.WriteBits(uint32(l), 4)
	}
	for _, t := range tokens {
		if t.length == 0 {
			if err := litEnc.Encode(&w, int(t.lit)); err != nil {
				return nil, err
			}
			continue
		}
		lc := lengthCode(t.length)
		if err := litEnc.Encode(&w, 257+lc); err != nil {
			return nil, err
		}
		w.WriteBits(uint32(t.length-lengthCodes[lc].base), lengthCodes[lc].extra)
		dc := distCode(t.distance)
		if err := distEnc.Encode(&w, dc); err != nil {
			return nil, err
		}
		w.WriteBits(uint32(t.distance-distCodes[dc].base), distCodes[dc].extra)
	}
	if err := litEnc.Encode(&w, symEOB); err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// heads holds head tables between Compress calls, so a call refills
// 128 KiB instead of allocating it.
var heads = sync.Pool{New: func() any { return new([HashSize]int32) }}

// tokenize runs the hash-chain matcher, firing the gadget tracer on every
// INSERT_STRING. It refills head, so any earlier contents are ignored.
func tokenize(head *[HashSize]int32, src []byte, opts Options) []token {
	var tokens []token
	if len(src) == 0 {
		return tokens
	}

	prev := make([]int32, len(src))
	for i := range head {
		head[i] = -1
	}

	var insH uint32
	if len(src) >= 2 {
		insH = (uint32(src[0])<<HashShift ^ uint32(src[1])) & HashMask
	}
	insert := func(pos int) int32 {
		insH = ((insH << HashShift) ^ uint32(src[pos+2])) & HashMask
		if opts.Tracer != nil {
			opts.Tracer.HeadInsert(insH, pos)
		}
		opts.Stats.insert()
		h := head[insH]
		prev[pos] = h
		head[insH] = int32(pos)
		return h
	}

	bestMatch := bestMatchFast
	if opts.useRefMatcher {
		bestMatch = bestMatchRef
	}

	pos := 0
	prevLen, prevDist := 0, 0
	havePrev := false
	for pos < len(src) {
		var length, dist int
		if pos+MinMatch <= len(src) && pos+2 < len(src) {
			chain := insert(pos)
			length, dist = bestMatch(src, prev, pos, chain, opts.Stats)
		}
		if !opts.Lazy {
			if length >= MinMatch {
				tokens = append(tokens, token{length: length, distance: dist})
				// Insert the skipped positions to keep chains fresh.
				for k := pos + 1; k < pos+length && k+2 < len(src); k++ {
					insert(k)
				}
				pos += length
			} else {
				tokens = append(tokens, token{lit: src[pos]})
				pos++
			}
			continue
		}
		// deflate_slow: defer emitting a match by one byte to see if the
		// next position matches longer.
		if havePrev {
			if length > prevLen {
				// Previous position becomes a literal; current match is
				// kept pending.
				tokens = append(tokens, token{lit: src[pos-1]})
				prevLen, prevDist = length, dist
				pos++
				continue
			}
			tokens = append(tokens, token{length: prevLen, distance: prevDist})
			for k := pos + 1; k < pos-1+prevLen && k+2 < len(src); k++ {
				insert(k)
			}
			pos = pos - 1 + prevLen
			havePrev = false
			continue
		}
		if length >= MinMatch {
			prevLen, prevDist = length, dist
			havePrev = true
			pos++
			continue
		}
		tokens = append(tokens, token{lit: src[pos]})
		pos++
	}
	if havePrev {
		tokens = append(tokens, token{length: prevLen, distance: prevDist})
	}
	return tokens
}

// bestMatchRef is the reference longest-match scan: walk the hash chain
// newest to oldest, extend each candidate byte by byte, keep the first
// candidate that achieves each strictly greater length. Retained for the
// differential test (Options.useRefMatcher).
func bestMatchRef(src []byte, prev []int32, pos int, chain int32, stats *MatchStats) (length, dist int) {
	limit := pos - WindowSize
	maxLen := len(src) - pos
	if maxLen > MaxMatch {
		maxLen = MaxMatch
	}
	if maxLen < MinMatch {
		return 0, 0
	}
	for tries := 0; chain >= 0 && int(chain) > limit && tries < maxChainLen; tries++ {
		cand := int(chain)
		stats.follow()
		l := 0
		for l < maxLen && src[cand+l] == src[pos+l] {
			l++
		}
		stats.cmp(l)
		if l > length {
			length, dist = l, pos-cand
			if l == maxLen {
				break
			}
		}
		chain = prev[cand]
	}
	if length < MinMatch {
		return 0, 0
	}
	return length, dist
}

// bestMatchFast is selection-identical to bestMatchRef but cheaper per
// candidate, borrowing zlib's longest_match structure:
//
//   - scan-end rejection: a candidate can only beat the current best
//     length L by matching at least L+1 bytes, which requires
//     src[cand+L] == src[pos+L]; when that byte differs the candidate is
//     skipped without extending. Skipped candidates would have produced
//     l <= L in the reference scan and therefore never update (length,
//     dist), so the surviving winner — first strictly-longer candidate in
//     chain order — is unchanged.
//   - word-at-a-time extension: the match is extended 8 bytes per
//     comparison with an XOR + trailing-zero count, falling back to the
//     byte loop near the buffer end. The computed l is exactly the
//     reference scan's l.
//
// The chain walk itself (start, order, try budget, window limit, early
// break at maxLen) is byte-for-byte the reference loop, so both variants
// also touch prev[] identically.
func bestMatchFast(src []byte, prev []int32, pos int, chain int32, stats *MatchStats) (length, dist int) {
	limit := pos - WindowSize
	maxLen := len(src) - pos
	if maxLen > MaxMatch {
		maxLen = MaxMatch
	}
	if maxLen < MinMatch {
		return 0, 0
	}
	for tries := 0; chain >= 0 && int(chain) > limit && tries < maxChainLen; tries++ {
		cand := int(chain)
		stats.follow()
		// Scan-end rejection. length < maxLen here (a best of maxLen breaks
		// out below), so pos+length is in bounds.
		if length > 0 && src[cand+length] != src[pos+length] {
			chain = prev[cand]
			continue
		}
		l := matchLen(src, cand, pos, maxLen)
		stats.cmp(l)
		if l > length {
			length, dist = l, pos-cand
			if l == maxLen {
				break
			}
		}
		chain = prev[cand]
	}
	if length < MinMatch {
		return 0, 0
	}
	return length, dist
}

// matchLen returns the length of the common prefix of src[cand:] and
// src[pos:], capped at maxLen, comparing 8 bytes at a time while both
// windows allow it.
func matchLen(src []byte, cand, pos, maxLen int) int {
	l := 0
	for l+8 <= maxLen && pos+l+8 <= len(src) {
		x := binary.LittleEndian.Uint64(src[cand+l:]) ^ binary.LittleEndian.Uint64(src[pos+l:])
		if x != 0 {
			return l + bits.TrailingZeros64(x)>>3
		}
		l += 8
	}
	for l < maxLen && src[cand+l] == src[pos+l] {
		l++
	}
	return l
}

// ErrCorrupt reports a malformed compressed stream.
var ErrCorrupt = errors.New("lz77: corrupt stream")

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
	litLens := make([]uint8, numLitLen)
	for i := range litLens {
		v, err := r.ReadBits(4)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		litLens[i] = uint8(v)
	}
	distLens := make([]uint8, numDistSyms)
	for i := range distLens {
		v, err := r.ReadBits(4)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		distLens[i] = uint8(v)
	}
	litDec, err := huffcoding.NewDecoder(litLens)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	distDec, err := huffcoding.NewDecoder(distLens)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	// size is untrusted header data: clamp the pre-allocation so a
	// corrupted stream cannot demand gigabytes up front. The appends
	// below grow as needed and the EOB size check still enforces the
	// exact length, so valid streams are unaffected.
	capHint := int64(size)
	if capHint > maxPrealloc {
		capHint = maxPrealloc
	}
	out := make([]byte, 0, capHint)
	for {
		sym, err := litDec.Decode(r)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		switch {
		case sym < 256:
			out = append(out, byte(sym))
		case sym == symEOB:
			if uint32(len(out)) != size {
				return nil, fmt.Errorf("%w: size mismatch: %d != %d", ErrCorrupt, len(out), size)
			}
			return out, nil
		default:
			lc := sym - 257
			if lc >= len(lengthCodes) {
				return nil, fmt.Errorf("%w: bad length code %d", ErrCorrupt, lc)
			}
			extra, err := r.ReadBits(lengthCodes[lc].extra)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			length := lengthCodes[lc].base + int(extra)
			dc, err := distDec.Decode(r)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			if dc >= len(distCodes) {
				return nil, fmt.Errorf("%w: bad distance code %d", ErrCorrupt, dc)
			}
			dextra, err := r.ReadBits(distCodes[dc].extra)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			dist := distCodes[dc].base + int(dextra)
			if dist > len(out) {
				return nil, fmt.Errorf("%w: distance %d beyond output %d", ErrCorrupt, dist, len(out))
			}
			for i := 0; i < length; i++ {
				out = append(out, out[len(out)-dist])
			}
		}
	}
}
