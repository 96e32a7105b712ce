package obs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestRegistryConcurrency hammers one registry from many goroutines —
// creating instruments by name, updating them, emitting trace events,
// running spans, and snapshotting concurrently. Run with -race; the test
// also asserts the final counts so lost updates surface without it.
func TestRegistryConcurrency(t *testing.T) {
	const goroutines = 16
	const perG = 2000

	r := NewRegistry()
	r.SetSimClock(func() uint64 { return 1 })
	var buf bytes.Buffer
	r.SetTraceSink(NewTraceSink(&buf))

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("shared").Inc()
				r.Counter(fmt.Sprintf("own.%d", g%4)).Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h").Observe(int64(i % 100))
				if i%100 == 0 {
					r.StartSpan("span").End()
					r.Emit("tick", map[string]any{"g": g, "i": i})
				}
				if i%500 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()

	if got := r.Counter("shared").Value(); got != goroutines*perG {
		t.Errorf("shared counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("h").Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if got := r.Counter("span.calls").Value(); got != goroutines*(perG/100) {
		t.Errorf("span calls = %d, want %d", got, goroutines*(perG/100))
	}
	if err := r.traceSink().Err(); err != nil {
		t.Errorf("trace sink error: %v", err)
	}
}
