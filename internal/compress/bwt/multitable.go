package bwt

import (
	"fmt"

	"github.com/zipchannel/zipchannel/internal/compress/huffcoding"
)

// bzip2's entropy stage does not use one Huffman table: it splits the
// symbol stream into groups of 50 and selects, per group, one of up to 6
// tables, refined over several passes so each table specializes on a
// region of the stream (the front of a block after MTF looks very
// different from the back). This file implements that scheme: table
// initialization by frequency partition, iterative reassignment, and the
// selector-annotated encoding.

const (
	// groupSize is bzip2's G_SIZE.
	groupSize = 50
	// maxTables is bzip2's N_GROUPS.
	maxTables = 6
)

// numTablesFor mirrors bzip2's table-count heuristic.
func numTablesFor(nSyms int) int {
	switch {
	case nSyms < 200:
		return 2
	case nSyms < 600:
		return 3
	case nSyms < 1200:
		return 4
	case nSyms < 2400:
		return 5
	default:
		return maxTables
	}
}

// buildTables partitions the symbol stream into groups, assigns each
// group to one of nTables Huffman tables, and refines tables and
// assignments over a few passes (bzip2 uses N_ITERS = 4).
func buildTables(syms []uint16) (lengths [][]uint8, selectors []uint8, err error) {
	nGroups := (len(syms) + groupSize - 1) / groupSize
	nTables := numTablesFor(len(syms))

	// Global frequency, and the used-symbol set every table must cover.
	globalFreq := make([]int64, numMTFSym)
	for _, s := range syms {
		globalFreq[s]++
	}

	// Initial partition: split the alphabet into nTables contiguous
	// ranges of roughly equal total frequency (bzip2's initial split),
	// and give table t high affinity for its range.
	var total int64
	for _, f := range globalFreq {
		total += f
	}
	lengths = make([][]uint8, nTables)
	var acc int64
	tbl := 0
	bounds := make([]int, nTables+1)
	bounds[0] = 0
	for sym := 0; sym < numMTFSym && tbl < nTables-1; sym++ {
		acc += globalFreq[sym]
		if acc >= total*int64(tbl+1)/int64(nTables) {
			tbl++
			bounds[tbl] = sym + 1
		}
	}
	bounds[nTables] = numMTFSym
	for t := 0; t < nTables; t++ {
		// Seed lengths: short codes inside the table's range, long outside.
		l := make([]uint8, numMTFSym)
		for sym := 0; sym < numMTFSym; sym++ {
			if sym >= bounds[t] && sym < bounds[t+1] {
				l[sym] = 4
			} else {
				l[sym] = 12
			}
		}
		lengths[t] = l
	}

	selectors = make([]uint8, nGroups)
	tableFreq := make([][]int64, nTables)
	for t := range tableFreq {
		tableFreq[t] = make([]int64, numMTFSym)
	}
	// lenPack[s] holds every table's cost for symbol s in 16-bit lanes,
	// tables 0-3 in the first word and 4-5 in the second (bzip2's
	// len_pack), so a group's costs under all tables take two adds per
	// symbol. A group's cost is at most groupSize*20, so no lane carries.
	lenPack := make([][2]uint64, numMTFSym)
	var hb huffcoding.Builder
	for iter := 0; iter < 4; iter++ {
		for sym := range lenPack {
			var p [2]uint64
			for t := 0; t < nTables; t++ {
				cl := uint64(lengths[t][sym])
				if cl == 0 {
					cl = 20 // unusable symbol: strongly discourage
				}
				p[t/4] |= cl << (16 * (t % 4))
			}
			lenPack[sym] = p
		}
		// Assign each group to its cheapest table, the first on a tie.
		for _, freq := range tableFreq {
			clear(freq)
		}
		for g := 0; g < nGroups; g++ {
			lo := g * groupSize
			hi := min(lo+groupSize, len(syms))
			var cost [2]uint64
			for _, s := range syms[lo:hi] {
				cost[0] += lenPack[s][0]
				cost[1] += lenPack[s][1]
			}
			best, bestCost := 0, uint64(1)<<16
			for t := 0; t < nTables; t++ {
				if c := cost[t/4] >> (16 * (t % 4)) & 0xffff; c < bestCost {
					best, bestCost = t, c
				}
			}
			selectors[g] = uint8(best)
			for _, s := range syms[lo:hi] {
				tableFreq[best][s]++
			}
		}
		// Rebuild each table from the groups it won. Every globally used
		// symbol gets at least frequency 1 so each table can encode any
		// group it might be assigned next round (bzip2 does the same).
		for t := 0; t < nTables; t++ {
			freq := tableFreq[t]
			for sym, f := range globalFreq {
				if f > 0 && freq[sym] == 0 {
					freq[sym] = 1
				}
			}
			newLens, err := hb.BuildLengths(freq, huffcoding.MaxCodeLen)
			if err != nil {
				return nil, nil, fmt.Errorf("bwt: table %d: %w", t, err)
			}
			lengths[t] = newLens
		}
	}
	return lengths, selectors, nil
}

// encodeMultiTable writes the selector-annotated symbol stream:
// [nTables:3][nGroups:32][selectors:3 bits each][tables' lengths:4 bits
// each][symbols]. (Real bzip2 MTF-codes the selectors and delta-codes
// the lengths; we store them flat — documented divergence.)
func encodeMultiTable(w *huffcoding.BitWriter, syms []uint16) error {
	lengths, selectors, err := buildTables(syms)
	if err != nil {
		return err
	}
	encs := make([]*huffcoding.Encoder, len(lengths))
	for t, l := range lengths {
		enc, err := huffcoding.NewEncoder(l)
		if err != nil {
			return err
		}
		encs[t] = enc
	}

	w.WriteBits(uint32(len(lengths)), 3)
	w.WriteBits(uint32(len(selectors)), 32)
	for _, sel := range selectors {
		w.WriteBits(uint32(sel), 3)
	}
	for _, l := range lengths {
		for _, v := range l {
			w.WriteBits(uint32(v), 4)
		}
	}
	for g := 0; g < len(selectors); g++ {
		lo := g * groupSize
		hi := min(lo+groupSize, len(syms))
		enc := encs[selectors[g]]
		for _, s := range syms[lo:hi] {
			if err := enc.Encode(w, int(s)); err != nil {
				return err
			}
		}
	}
	return nil
}

// decodeMultiTable reads the stream written by encodeMultiTable, stopping
// at the EOB symbol.
func decodeMultiTable(r *huffcoding.BitReader) ([]uint16, error) {
	nTables, err := r.ReadBits(3)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if nTables == 0 || nTables > maxTables {
		return nil, fmt.Errorf("%w: %d tables", ErrCorrupt, nTables)
	}
	nGroups, err := r.ReadBits(32)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// Each group has a 3-bit selector, so a count the rest of the input
	// cannot hold is corrupt; rejecting it first bounds the selector
	// allocation by the input size.
	if uint64(nGroups)*3 > uint64(r.BitsLeft()) {
		return nil, fmt.Errorf("%w: %d groups in %d bits", ErrCorrupt, nGroups, r.BitsLeft())
	}
	selectors := make([]uint8, nGroups)
	for i := range selectors {
		v, err := r.ReadBits(3)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if v >= nTables {
			return nil, fmt.Errorf("%w: selector %d of %d tables", ErrCorrupt, v, nTables)
		}
		selectors[i] = uint8(v)
	}
	decs := make([]*huffcoding.Decoder, nTables)
	for t := range decs {
		lens := make([]uint8, numMTFSym)
		for i := range lens {
			v, err := r.ReadBits(4)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			lens[i] = uint8(v)
		}
		dec, err := huffcoding.NewDecoder(lens)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		decs[t] = dec
	}

	var syms []uint16
	for g := 0; g < int(nGroups); g++ {
		dec := decs[selectors[g]]
		for k := 0; k < groupSize; k++ {
			s, err := dec.Decode(r)
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			syms = append(syms, uint16(s))
			if s == symEOB {
				return syms, nil
			}
		}
	}
	return nil, fmt.Errorf("%w: missing EOB", ErrCorrupt)
}
