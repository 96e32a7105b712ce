package lz77

import (
	"bytes"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/zipchannel/zipchannel/internal/corpus"
)

// TestReusedHeadMatchesFresh runs a sequence of inputs through one pooled
// head table and requires each call's tokens, HeadInsert stream and
// matcher counts to equal a fresh table's. The longest input goes first,
// so the table holds positions past the end of every later input.
func TestReusedHeadMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	random := make([]byte, 4096)
	rng.Read(random)
	inputs := [][]byte{
		corpus.EnglishText(rand.New(rand.NewSource(42)), 64<<10),
		corpus.EnglishText(rand.New(rand.NewSource(43)), 4<<10),
		random,
		bytes.Repeat([]byte("abcab"), 700),
		[]byte("ab"),
		corpus.EnglishText(rand.New(rand.NewSource(44)), 1000),
	}
	head := heads.Get().(*[HashSize]int32)
	defer heads.Put(head)
	for round := 0; round < 2; round++ {
		for i, src := range inputs {
			for _, lazy := range []bool{false, true} {
				var wantTrace, gotTrace traceRecorder
				var wantStats, gotStats MatchStats
				want := tokenize(new([HashSize]int32), src, Options{Lazy: lazy, Tracer: &wantTrace, Stats: &wantStats})
				got := tokenize(head, src, Options{Lazy: lazy, Tracer: &gotTrace, Stats: &gotStats})
				if !slices.Equal(got, want) {
					t.Fatalf("round %d input %d lazy=%v: tokens differ from a fresh table's", round, i, lazy)
				}
				if !slices.Equal(gotTrace.events, wantTrace.events) {
					t.Fatalf("round %d input %d lazy=%v: HeadInsert stream differs from a fresh table's", round, i, lazy)
				}
				if gotStats != wantStats {
					t.Fatalf("round %d input %d lazy=%v: stats %+v, fresh table %+v", round, i, lazy, gotStats, wantStats)
				}
			}
		}
	}
}

// TestConcurrentCompress runs Compress from several goroutines at once,
// as the server's workers do: pooled head tables must not leak between
// them.
func TestConcurrentCompress(t *testing.T) {
	srcs := make([][]byte, 4)
	want := make([][]byte, len(srcs))
	for i := range srcs {
		srcs[i] = corpus.EnglishText(rand.New(rand.NewSource(int64(50+i))), 1000+1500*i)
		out, err := Compress(srcs[i], Options{Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (g + k) % len(srcs)
				out, err := Compress(srcs[i], Options{Lazy: true})
				if err != nil || !bytes.Equal(out, want[i]) {
					t.Errorf("goroutine %d call %d: output differs (err %v)", g, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
