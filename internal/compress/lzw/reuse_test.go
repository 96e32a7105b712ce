package lzw

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// probe is one Tracer event.
type probe struct {
	hp      uint64
	primary bool
}

// probeLog records every probe in order.
type probeLog []probe

func (l *probeLog) Probe(hp uint64, primary bool) { *l = append(*l, probe{hp, primary}) }

// TestReusedDictMatchesFresh pushes one pooled dict through more than 256
// resets, past the generation wrap, and requires every traced compress
// through it to give a fresh table's bytes and full probe sequence. The
// first round leaves entries in the lowest generations; bare resets,
// which write no slot, then bring the dict to the last generation, and
// the rounds after the wrap reuse those generations, so a wrap that does
// not clear the table changes the output.
func TestReusedDictMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	srcs := make([][]byte, 3)
	want := make([][]byte, len(srcs))
	wantProbes := make([]probeLog, len(srcs))
	gens := make([]int, len(srcs)) // resets one compress of srcs[i] makes
	for i := range srcs {
		// Random bytes fill the code space about every 100 KB.
		srcs[i] = make([]byte, 250000)
		rng.Read(srcs[i])
		fresh := newDict()
		want[i] = fresh.compress(srcs[i], &wantProbes[i])
		// A fresh dict starts at generation 1 and compress resets it
		// once before the first byte and once per CLEAR.
		gens[i] = int(fresh.gen) - 1
		if gens[i] < 3 {
			t.Fatalf("input %d reached CLEAR %d times, want at least 2", i, gens[i]-1)
		}
	}

	d := dicts.Get().(*dict)
	defer dicts.Put(d)
	resets := 0
	reset := func() {
		d.reset()
		resets++
	}
	round := 0
	compress := func() {
		i := round % len(srcs)
		round++
		var got probeLog
		before := d.gen
		out := d.compress(srcs[i], &got)
		resets += gens[i]
		if !bytes.Equal(out, want[i]) {
			t.Fatalf("round %d (generation %d): output differs from a fresh table's", round, before)
		}
		if !slices.Equal(got, wantProbes[i]) {
			t.Fatalf("round %d (generation %d): probe sequence differs from a fresh table's", round, before)
		}
	}
	for d.gen != 1 {
		reset()
	}
	compress() // leaves entries in the generations from 2 on
	for d.gen != 255 {
		reset()
	}
	// The next reset wraps, and the CLEARs after it reach generation 2.
	for n := 0; n < 10 && (d.gen >= 250 || d.gen < 8); n++ {
		compress()
	}
	if resets < 256 || d.gen >= 250 || d.gen < 8 {
		t.Fatalf("%d resets ending at generation %d, want at least 256 and the wrap passed", resets, d.gen)
	}
}

// TestConcurrentCompress runs Compress from several goroutines at once,
// as the server's workers do: pooled dicts must not leak between them.
func TestConcurrentCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	srcs := make([][]byte, 4)
	want := make([][]byte, len(srcs))
	for i := range srcs {
		srcs[i] = make([]byte, 2000+1000*i)
		rng.Read(srcs[i][:len(srcs[i])/2]) // half random, half zeros
		want[i] = newDict().compress(srcs[i], nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (g + k) % len(srcs)
				out, err := Compress(srcs[i], nil)
				if err != nil || !bytes.Equal(out, want[i]) {
					t.Errorf("goroutine %d call %d: output differs (err %v)", g, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
