package huffcoding

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The previous BuildLengths, kept as the reference the two-queue builder
// must match: a container/heap of node indices ordered by (frequency,
// node index) and a recursive depth walk.

type hnode struct {
	freq        int64
	sym         int // leaf symbol, -1 for internal
	left, right int // node indices, -1 for leaves
}

type nodeHeap struct {
	nodes *[]hnode
	order []int
}

func (h nodeHeap) Len() int { return len(h.order) }
func (h nodeHeap) Less(i, j int) bool {
	a, b := (*h.nodes)[h.order[i]], (*h.nodes)[h.order[j]]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return h.order[i] < h.order[j] // deterministic tie-break
}
func (h nodeHeap) Swap(i, j int)       { h.order[i], h.order[j] = h.order[j], h.order[i] }
func (h *nodeHeap) Push(x interface{}) { h.order = append(h.order, x.(int)) }
func (h *nodeHeap) Pop() interface{} {
	old := h.order
	n := len(old)
	x := old[n-1]
	h.order = old[:n-1]
	return x
}

func referenceBuildLengths(freq []int64, maxLen int) ([]uint8, error) {
	if maxLen <= 0 || maxLen > MaxCodeLen {
		maxLen = MaxCodeLen
	}
	n := len(freq)
	lengths := make([]uint8, n)
	work := make([]int64, n)
	copy(work, freq)

	alive := 0
	for _, f := range work {
		if f > 0 {
			alive++
		}
	}
	if alive == 0 {
		return nil, fmt.Errorf("%w: no symbols", ErrBadLengths)
	}
	if alive == 1 {
		for i, f := range work {
			if f > 0 {
				lengths[i] = 1
			}
		}
		return lengths, nil
	}

	for attempt := 0; ; attempt++ {
		nodes := make([]hnode, 0, 2*n)
		h := &nodeHeap{nodes: &nodes}
		for i, f := range work {
			if f > 0 {
				nodes = append(nodes, hnode{freq: f, sym: i, left: -1, right: -1})
				h.order = append(h.order, len(nodes)-1)
			}
		}
		heap.Init(h)
		for h.Len() > 1 {
			a := heap.Pop(h).(int)
			b := heap.Pop(h).(int)
			nodes = append(nodes, hnode{freq: nodes[a].freq + nodes[b].freq, sym: -1, left: a, right: b})
			heap.Push(h, len(nodes)-1)
		}
		root := h.order[0]
		over := false
		var walk func(i, depth int)
		walk = func(i, depth int) {
			nd := nodes[i]
			if nd.sym >= 0 {
				if depth > maxLen {
					over = true
					depth = maxLen
				}
				lengths[nd.sym] = uint8(depth)
				return
			}
			walk(nd.left, depth+1)
			walk(nd.right, depth+1)
		}
		walk(root, 0)
		if !over {
			return lengths, nil
		}
		if attempt > 32 {
			return nil, fmt.Errorf("%w: cannot limit lengths to %d bits", ErrBadLengths, maxLen)
		}
		// Flatten the distribution and retry (bzip2's trick).
		for i := range work {
			if work[i] > 0 {
				work[i] = work[i]/2 + 1
			}
		}
	}
}

// FuzzBuildLengths requires BuildLengths to return the reference's
// lengths and errors. Each pair of input bytes is one symbol's frequency,
// shifted left by up to 40 bits so sums grow large and the halving
// limiter has to run; maxLen covers the defaulted values 0 and 16 too.
// The seeds include 300 random vectors, so plain `go test` checks them.
func FuzzBuildLengths(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{45, 0, 13, 0, 12, 0, 16, 0, 9, 0, 5, 0})
	f.Add(uint8(15), uint8(40), []byte{1, 0, 1, 0, 2, 0, 3, 0, 5, 0, 8, 0, 13, 0, 21, 0, 34, 0, 55, 0, 89, 0, 144, 0, 233, 0})
	f.Add(uint8(3), uint8(0), []byte{1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0})
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 300; i++ {
		data := make([]byte, 2*(1+rng.Intn(259)))
		rng.Read(data)
		for j := range data {
			if rng.Intn(4) == 0 {
				data[j] = 0 // unused symbols and small frequencies
			}
		}
		f.Add(uint8(rng.Intn(17)), uint8(rng.Intn(41)), data)
	}
	f.Fuzz(func(t *testing.T, maxLen, shift uint8, data []byte) {
		freq := make([]int64, min(len(data)/2, 512))
		for i := range freq {
			freq[i] = int64(binary.LittleEndian.Uint16(data[2*i:])) << (shift % 41)
		}
		limit := int(maxLen % 17)
		want, wantErr := referenceBuildLengths(freq, limit)
		got, gotErr := BuildLengths(freq, limit)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("maxLen %d: error %v, reference %v", limit, gotErr, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("maxLen %d: lengths %v, reference %v", limit, got, want)
		}
	})
}
