package codec

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/zipchannel/zipchannel/internal/compress/bwt"
)

// TestBWTUntracedMatchesTraced requires an untraced bwt.Compress, which
// sorts aperiodic blocks without comparisons and sends periodic full
// blocks straight to fallbackSort, to write the bytes of a traced one,
// which takes the Fig 6 path: on goldenInputs, on random short and full
// blocks, and on periodic short and full blocks, at the default block
// size and at a small one.
func TestBWTUntracedMatchesTraced(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ins := goldenInputs()
	for _, n := range []int{1, 2, 700, 4 << 10, bwt.DefaultBlockSize, 2*bwt.DefaultBlockSize + 123} {
		for _, alpha := range []int{2, 256} {
			in := make([]byte, n)
			for i := range in {
				in[i] = byte(rng.Intn(alpha))
			}
			ins = append(ins, in)
		}
	}
	// The periods divide the block size, so full blocks are periodic too;
	// 25,000 bytes is two full blocks and a short periodic tail.
	for _, period := range []string{"ab", "zip-bwt!", "0123456789"} {
		ins = append(ins,
			bytes.Repeat([]byte(period), 3000/len(period)),
			bytes.Repeat([]byte(period), 25000/len(period)))
	}
	check := func(in []byte, blockSize int) {
		t.Helper()
		untraced, err := bwt.Compress(in, bwt.Options{BlockSize: blockSize})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := bwt.Compress(in, bwt.Options{BlockSize: blockSize, Tracer: bwt.BaseTracer{}})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(untraced, traced) {
			t.Fatalf("block size %d, %d bytes: untraced bytes differ from traced", blockSize, len(in))
		}
	}
	for _, in := range ins {
		check(in, 0)
	}
	// mainSort finishes periodic 16-byte blocks within budget and orders
	// their identical rotations unlike fallbackSort, so untraced ones
	// must still enter it.
	for _, period := range []string{"ab", "zip-bwt!"} {
		check(bytes.Repeat([]byte(period), 128/len(period)), 16)
	}
}

// abandons counts mainSort abandonments.
type abandons struct {
	bwt.BaseTracer
	n int
}

func (a *abandons) MainSortAbandon(int) { a.n++ }

// TestBWTPeriodicBodySkipsMainSort sends a full 10,000-byte block of
// period "abcab" through the registry. Traced, mainSort compares every
// pair of identical rotations across all n bytes before it abandons,
// which takes seconds; untraced, the block goes straight to
// fallbackSort and must finish far under a second with the same bytes.
func TestBWTPeriodicBodySkipsMainSort(t *testing.T) {
	body := bytes.Repeat([]byte("abcab"), bwt.DefaultBlockSize/5)
	c, _ := Lookup("bwt")
	start := time.Now()
	got, err := c.Compress(body)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	var tr abandons
	want, err := bwt.Compress(body, bwt.Options{Tracer: &tr})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("untraced bytes differ from traced")
	}
	if tr.n != 1 {
		t.Fatalf("traced compress abandoned mainSort %d times, want 1", tr.n)
	}
	if took > time.Second {
		t.Fatalf("untraced compress took %v, want far under 1s", took)
	}
}
