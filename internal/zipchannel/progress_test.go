package zipchannel

import (
	"sync"
	"testing"
	"time"

	"github.com/zipchannel/zipchannel/internal/obs"
)

// TestSnapshotWhileAttackRuns reads an attack's registry from a second
// goroutine every millisecond while Attack runs, the -progress pattern.
// The attack publishes its cache and Prime+Probe counts once per
// iteration; under -race this checks that the reader needs nothing
// more. The counts a reader sees must only grow, and the last snapshot
// must match the Result.
func TestSnapshotWhileAttackRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	cfg.Obs = obs.NewRegistry()
	keys := []string{"cache.hits", "cache.misses", "pp.probes", "attack.iterations"}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var snapshots int
	var regress []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := map[string]uint64{}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			snap := cfg.Obs.Snapshot()
			snapshots++
			for _, k := range keys {
				if v := snap.Counters[k]; v < last[k] {
					regress = append(regress, k)
				} else {
					last[k] = v
				}
			}
		}
	}()
	res, err := Attack(randomInput(1024, 3), cfg)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(regress) > 0 {
		t.Errorf("counters went backwards between snapshots: %v", regress)
	}
	t.Logf("%d snapshots while the attack ran", snapshots)
	got := cfg.Obs.Snapshot().Counters
	if got["cache.hits"] != res.CacheHits || got["cache.misses"] != res.CacheMisses {
		t.Errorf("registry hits/misses %d/%d, Result %d/%d",
			got["cache.hits"], got["cache.misses"], res.CacheHits, res.CacheMisses)
	}
	if got["attack.iterations"] != uint64(res.Iterations) {
		t.Errorf("attack.iterations = %d, Result %d", got["attack.iterations"], res.Iterations)
	}
}
