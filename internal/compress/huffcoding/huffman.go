package huffcoding

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// MaxCodeLen is the longest canonical code we emit, matching DEFLATE.
const MaxCodeLen = 15

// ErrBadLengths reports an invalid (non-prefix-complete) length set.
var ErrBadLengths = errors.New("huffcoding: invalid code lengths")

// BuildLengths computes Huffman code lengths for the given symbol
// frequencies, limited to maxLen bits. Symbols with zero frequency get
// length 0 (no code). At least one symbol must have nonzero frequency.
// Length limiting uses bzip2's approach: halve the frequencies and
// rebuild until the tree fits.
//
// The tree is built with two queues instead of a heap: the leaves sorted
// by frequency, and the merged nodes in creation order, whose
// frequencies never decrease. Each merge takes the two lightest heads,
// ties going to the lower node index (leaves come before merged nodes,
// then symbol or creation order), so the merge sequence is the one a
// heap ordered by (frequency, node index) gives.
func BuildLengths(freq []int64, maxLen int) ([]uint8, error) {
	var b Builder
	return b.BuildLengths(freq, maxLen)
}

// Builder runs BuildLengths with scratch kept between calls, for callers
// that build many trees in a row. The zero value is ready to use. A
// Builder is not safe for concurrent use.
type Builder struct {
	syms   []int // leaf j codes symbol syms[j]
	weight []int64
	parent []int32
	depth  []int32
	leaves []int32
	keys   []uint64
}

// BuildLengths is the package-level BuildLengths on b's scratch. Once
// the scratch has grown to the input's size, only the returned lengths
// are newly allocated.
func (b *Builder) BuildLengths(freq []int64, maxLen int) ([]uint8, error) {
	if maxLen <= 0 || maxLen > MaxCodeLen {
		maxLen = MaxCodeLen
	}
	lengths := make([]uint8, len(freq))
	syms := resize(&b.syms, len(freq))[:0]
	for sym, f := range freq {
		if f > 0 {
			syms = append(syms, sym)
		}
	}
	m := len(syms)
	if m == 0 {
		return nil, fmt.Errorf("%w: no symbols", ErrBadLengths)
	}
	if m == 1 {
		lengths[syms[0]] = 1
		return lengths, nil
	}

	// Nodes 0..m-1 are the leaves, m..2m-2 the merged nodes in creation
	// order; the root is the last.
	weight := resize(&b.weight, 2*m-1)
	parent := resize(&b.parent, 2*m-1)
	depth := resize(&b.depth, 2*m-1)
	leaves := resize(&b.leaves, m)
	// Leaves sort as weight<<16 | index keys when both fit, which orders
	// them as the stable sort by weight does. Halving never raises a
	// weight, so the check holds for every attempt.
	packed := m <= 1<<16
	for j, sym := range syms {
		weight[j] = freq[sym]
		packed = packed && weight[j] < 1<<47
	}
	for attempt := 0; ; attempt++ {
		if packed {
			keys := resize(&b.keys, m)
			for j := range keys {
				keys[j] = uint64(weight[j])<<16 | uint64(j)
			}
			slices.Sort(keys)
			for j, k := range keys {
				leaves[j] = int32(k & 0xffff)
			}
		} else {
			for j := range leaves {
				leaves[j] = int32(j)
			}
			slices.SortStableFunc(leaves, func(a, b int32) int { return cmp.Compare(weight[a], weight[b]) })
		}
		// lightest pops the lighter of the two queue heads. next is the
		// node about to be created, so merged nodes qi..next-1 are queued.
		li, qi := 0, m
		lightest := func(next int) int32 {
			if li < m && (qi == next || weight[leaves[li]] <= weight[qi]) {
				li++
				return leaves[li-1]
			}
			qi++
			return int32(qi - 1)
		}
		for next := m; next < 2*m-1; next++ {
			a := lightest(next)
			b := lightest(next)
			weight[next] = weight[a] + weight[b]
			parent[a], parent[b] = int32(next), int32(next)
		}
		// Every parent was created after its children, so one pass from
		// the root down sets each depth from one already set.
		depth[2*m-2] = 0
		for i := 2*m - 3; i >= 0; i-- {
			depth[i] = depth[parent[i]] + 1
		}
		over := false
		for j, sym := range syms {
			d := int(depth[j])
			if d > maxLen {
				over = true
				d = maxLen
			}
			lengths[sym] = uint8(d)
		}
		if !over {
			return lengths, nil
		}
		if attempt > 32 {
			return nil, fmt.Errorf("%w: cannot limit lengths to %d bits", ErrBadLengths, maxLen)
		}
		// Flatten the distribution and retry (bzip2's trick).
		for j := 0; j < m; j++ {
			weight[j] = weight[j]/2 + 1
		}
	}
}

// resize returns (*s)[:n], growing *s first when it is too short.
func resize[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	return (*s)[:n]
}

// CanonicalCodes assigns canonical codes (MSB-first) to the given
// lengths: shorter codes first, ties broken by symbol order.
func CanonicalCodes(lengths []uint8) ([]uint32, error) {
	var count [MaxCodeLen + 1]int
	for _, l := range lengths {
		if int(l) > MaxCodeLen {
			return nil, fmt.Errorf("%w: length %d", ErrBadLengths, l)
		}
		count[l]++
	}
	count[0] = 0
	var next [MaxCodeLen + 2]uint32
	code := uint32(0)
	for l := 1; l <= MaxCodeLen; l++ {
		code = (code + uint32(count[l-1])) << 1
		next[l] = code
	}
	codes := make([]uint32, len(lengths))
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		codes[sym] = next[l]
		if next[l] >= 1<<l {
			return nil, fmt.Errorf("%w: over-subscribed at length %d", ErrBadLengths, l)
		}
		next[l]++
	}
	return codes, nil
}

// Encoder writes symbols as canonical Huffman codes.
type Encoder struct {
	lengths []uint8
	codes   []uint32
}

// NewEncoder builds an encoder from code lengths.
func NewEncoder(lengths []uint8) (*Encoder, error) {
	codes, err := CanonicalCodes(lengths)
	if err != nil {
		return nil, err
	}
	return &Encoder{lengths: lengths, codes: codes}, nil
}

// Encode writes the code for sym (MSB-first).
func (e *Encoder) Encode(w *BitWriter, sym int) error {
	l := e.lengths[sym]
	if l == 0 {
		return fmt.Errorf("%w: symbol %d has no code", ErrBadLengths, sym)
	}
	code := e.codes[sym]
	for i := int(l) - 1; i >= 0; i-- {
		w.WriteBit((code >> uint(i)) & 1)
	}
	return nil
}

// Decoder reads canonical Huffman codes bit by bit using per-length
// first-code/offset tables (the zlib decode structure).
type Decoder struct {
	counts  [MaxCodeLen + 1]int
	symbols []int // symbols sorted by (length, symbol)
}

// NewDecoder builds a decoder from the same lengths the encoder used.
func NewDecoder(lengths []uint8) (*Decoder, error) {
	d := &Decoder{}
	for _, l := range lengths {
		if int(l) > MaxCodeLen {
			return nil, fmt.Errorf("%w: length %d", ErrBadLengths, l)
		}
		d.counts[l]++
	}
	d.counts[0] = 0
	// Validate Kraft sum <= 1.
	left := 1
	for l := 1; l <= MaxCodeLen; l++ {
		left <<= 1
		left -= d.counts[l]
		if left < 0 {
			return nil, fmt.Errorf("%w: over-subscribed", ErrBadLengths)
		}
	}
	var offs [MaxCodeLen + 2]int
	for l := 1; l <= MaxCodeLen; l++ {
		offs[l+1] = offs[l] + d.counts[l]
	}
	d.symbols = make([]int, offs[MaxCodeLen+1])
	idx := offs
	for sym, l := range lengths {
		if l > 0 {
			d.symbols[idx[l]] = sym
			idx[l]++
		}
	}
	return d, nil
}

// Decode consumes one code from r and returns its symbol.
func (d *Decoder) Decode(r *BitReader) (int, error) {
	code, first, index := 0, 0, 0
	for l := 1; l <= MaxCodeLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code |= int(b)
		count := d.counts[l]
		if code-first < count {
			return d.symbols[index+code-first], nil
		}
		index += count
		first = (first + count) << 1
		code <<= 1
	}
	return 0, fmt.Errorf("%w: invalid code", ErrBadLengths)
}
