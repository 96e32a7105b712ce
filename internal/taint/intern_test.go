package taint

import (
	"sync"
	"testing"
)

// TestInternConcurrentIDs has goroutines intern the same sets, singletons
// and unions in different orders: every goroutine must get the same ID
// for the same tags, and every ID must resolve back to its set. Run under
// -race it also checks that the lock-free ID and singleton tables publish
// their entries safely.
func TestInternConcurrentIDs(t *testing.T) {
	const (
		workers = 8
		keys    = 256
		// base puts the tags in a range no other test builds, so the
		// goroutines race to create the sets, not just to look them up.
		base = Tag(900_000)
	)
	results := make([]map[string]uint32, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := map[string]uint32{}
			record := func(s *Set) {
				if ByID(s.ID()) != s {
					t.Errorf("goroutine %d: ByID(%d) = %v, want %v", g, s.ID(), ByID(s.ID()), s)
				}
				got[s.String()] = s.ID()
			}
			<-start
			for i := 0; i < keys; i++ {
				// 7 is coprime to keys, so each goroutine visits every key,
				// starting at a different one.
				k := Tag((i*7 + g*13) % keys)
				one := NewSet(base + k)
				pair := NewSet(base+k+1, base+k)
				record(one)
				record(pair)
				record(Union(one, NewSet(base+k+2)))
				record(ByID(unionID(pair.ID(), NewSet(base+k+3).ID())))
				record(NewSet(singletonMax + k)) // the locked singleton path
				var w Word
				w.SetByte(base + k)
				if ids, mask := w.ByteIDs(0); mask != 0xff || ids[7] != one.ID() {
					t.Errorf("goroutine %d: SetByte(%d) byte 0 = %v/%#x, want ID %d", g, base+k, ids, mask, one.ID())
				}
			}
			results[g] = got
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < workers; g++ {
		if len(results[g]) != len(results[0]) {
			t.Fatalf("goroutine %d built %d distinct sets, goroutine 0 built %d", g, len(results[g]), len(results[0]))
		}
		for tags, id := range results[g] {
			if want := results[0][tags]; id != want {
				t.Errorf("goroutine %d: %s has ID %d, goroutine 0 got %d", g, tags, id, want)
			}
		}
	}
}
