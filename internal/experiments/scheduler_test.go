package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/par"
)

// fakeRunner builds a lightweight runner that sleeps (to shuffle finish
// order under parallelism) and records what the scheduler handed it.
func fakeRunner(name string, delay time.Duration, onRun func(*Ctx)) Runner {
	return Runner{Name: name, Run: func(ctx *Ctx) (*Result, error) {
		time.Sleep(delay)
		if onRun != nil {
			onRun(ctx)
		}
		res := newResult("T/"+name, "fake")
		res.addf("line from %s", name)
		ctx.Obs.Counter("fake.runs").Inc()
		return res, nil
	}}
}

// TestRunAllOrderedDelivery: OnResult must arrive in registry order at
// any parallelism, with no concurrent invocations, even when later
// tasks finish first.
func TestRunAllOrderedDelivery(t *testing.T) {
	var runners []Runner
	n := 8
	for i := 0; i < n; i++ {
		// Later tasks sleep less, so at parallelism n they finish in
		// roughly reverse order.
		runners = append(runners, fakeRunner(fmt.Sprintf("task%d", i), time.Duration(n-i)*3*time.Millisecond, nil))
	}
	var delivered []string
	var inFlight atomic.Int32
	outcomes, err := RunAll(context.Background(), RunOptions{
		Runners:     runners,
		Parallelism: n,
		OnResult: func(o *Outcome) {
			if inFlight.Add(1) != 1 {
				t.Error("OnResult invoked concurrently")
			}
			defer inFlight.Add(-1)
			delivered = append(delivered, o.Runner.Name)
		},
	})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(outcomes) != n || len(delivered) != n {
		t.Fatalf("got %d outcomes, %d deliveries, want %d", len(outcomes), len(delivered), n)
	}
	for i, name := range delivered {
		if want := fmt.Sprintf("task%d", i); name != want {
			t.Fatalf("delivery %d: got %s, want %s (full order %v)", i, name, want, delivered)
		}
	}
}

// TestRunAllSeedSplitting: with a root seed every task gets its own
// split seed and the worker budget; with none, tasks stay on the
// paper-pinned path (Ctx.Seed == 0).
func TestRunAllSeedSplitting(t *testing.T) {
	// The second RunAll runs both tasks at once, so the maps need a lock.
	var mu sync.Mutex
	seeds := make(map[string]int64)
	budgets := make(map[string]int)
	record := func(name string) func(*Ctx) {
		return func(c *Ctx) {
			mu.Lock()
			defer mu.Unlock()
			seeds[name] = c.Seed
			budgets[name] = c.Parallelism
		}
	}
	runners := []Runner{fakeRunner("a", 0, record("a")), fakeRunner("b", 0, record("b"))}
	if _, err := RunAll(context.Background(), RunOptions{Runners: runners, Parallelism: 1, RootSeed: 99}); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if seeds["a"] != par.SplitSeed(99, "a") || seeds["b"] != par.SplitSeed(99, "b") {
		t.Fatalf("split seeds wrong: %v", seeds)
	}
	if seeds["a"] == seeds["b"] {
		t.Fatalf("tasks share a seed: %v", seeds)
	}
	if budgets["a"] != 1 {
		t.Fatalf("worker budget not threaded: %v", budgets)
	}
	seeds = map[string]int64{}
	if _, err := RunAll(context.Background(), RunOptions{Runners: runners, Parallelism: 2}); err != nil {
		t.Fatalf("RunAll (no root seed): %v", err)
	}
	if seeds["a"] != 0 || seeds["b"] != 0 {
		t.Fatalf("pinned-seed path should see Ctx.Seed==0, got %v", seeds)
	}
}

// TestRunAllError: a failing task is reported in its outcome and the
// run error, its telemetry is NOT merged, and the other tasks still
// complete and merge.
func TestRunAllError(t *testing.T) {
	boom := errors.New("boom")
	runners := []Runner{
		fakeRunner("ok1", 0, nil),
		{Name: "bad", Run: func(ctx *Ctx) (*Result, error) {
			ctx.Obs.Counter("fake.runs").Inc() // must not reach the merged registry
			return nil, boom
		}},
		fakeRunner("ok2", 0, nil),
	}
	reg := obs.NewRegistry()
	outcomes, err := RunAll(context.Background(), RunOptions{Runners: runners, Parallelism: 3, Obs: reg})
	if err == nil || err.Error() != "1 experiment(s) failed" {
		t.Fatalf("want aggregate failure error, got %v", err)
	}
	if !errors.Is(outcomes[1].Err, boom) {
		t.Fatalf("outcome[1].Err = %v, want boom", outcomes[1].Err)
	}
	if outcomes[0].Err != nil || outcomes[2].Err != nil {
		t.Fatalf("healthy tasks failed: %v, %v", outcomes[0].Err, outcomes[2].Err)
	}
	if got := reg.Snapshot().Counters["fake.runs"]; got != 2 {
		t.Fatalf("merged fake.runs = %d, want 2 (failed task excluded)", got)
	}
}

// TestRunAllCancelled: a pre-cancelled context fails every task with
// the context error and returns it.
func TestRunAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outcomes, err := RunAll(ctx, RunOptions{Runners: []Runner{fakeRunner("a", 0, nil)}, Parallelism: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if !errors.Is(outcomes[0].Err, context.Canceled) {
		t.Fatalf("outcome err = %v", outcomes[0].Err)
	}
}

// TestRunAllSmokeParallel runs the cheap real experiments wide. This is
// the -race target for the scheduler: real runners, real registries,
// high parallelism, small inputs.
func TestRunAllSmokeParallel(t *testing.T) {
	var runners []Runner
	for _, name := range []string{"fig2", "fig3", "aes", "memcpy"} {
		r, ok := Lookup(name)
		if !ok {
			t.Fatalf("unknown runner %s", name)
		}
		runners = append(runners, r)
	}
	reg := obs.NewRegistry()
	outcomes, err := RunAll(context.Background(), RunOptions{Runners: runners, Quick: true, Parallelism: 8, Obs: reg})
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	for _, o := range outcomes {
		if o.Manifest == nil || o.Result == nil {
			t.Fatalf("%s: missing manifest/result", o.Runner.Name)
		}
		if o.Manifest.Snapshot == nil || len(o.Result.Lines) == 0 {
			t.Fatalf("%s: empty manifest", o.Runner.Name)
		}
	}
}

// TestSchedulerDeterministic is the acceptance criterion: the full
// quick suite must produce byte-identical manifests and a
// byte-identical merged telemetry snapshot at parallelism 1 and 8.
func TestSchedulerDeterministic(t *testing.T) {
	run := func(parallelism int) ([][]byte, []byte) {
		reg := obs.NewRegistry()
		outcomes, err := RunAll(context.Background(), RunOptions{Quick: true, Parallelism: parallelism, Obs: reg})
		if err != nil {
			t.Fatalf("RunAll(parallel=%d): %v", parallelism, err)
		}
		var manifests [][]byte
		for _, o := range outcomes {
			b, err := o.Manifest.MarshalIndent()
			if err != nil {
				t.Fatalf("marshal %s: %v", o.Runner.Name, err)
			}
			manifests = append(manifests, b)
		}
		snap, err := reg.Snapshot().MarshalIndent()
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		return manifests, snap
	}
	m1, s1 := run(1)
	m8, s8 := run(8)
	if len(m1) != len(m8) {
		t.Fatalf("manifest counts differ: %d vs %d", len(m1), len(m8))
	}
	for i := range m1 {
		if string(m1[i]) != string(m8[i]) {
			t.Errorf("manifest %d differs between parallel=1 and parallel=8:\n--- p1 ---\n%s\n--- p8 ---\n%s", i, m1[i], m8[i])
		}
	}
	if string(s1) != string(s8) {
		t.Errorf("merged snapshots differ between parallel=1 and parallel=8")
	}
}

// TestRunAllWorkerBudget: the scheduler splits the -parallel budget
// between the task pool and each task's inner fan-out instead of
// granting both the full width (the PR 2 oversubscription bug: 4 tasks
// × 4 inner workers on a 4-worker request).
func TestRunAllWorkerBudget(t *testing.T) {
	cases := []struct {
		parallelism, tasks, wantInner int
	}{
		{1, 5, 1},   // sequential: inner stays 1
		{4, 5, 1},   // pool soaks the budget
		{8, 2, 4},   // few tasks: leftover budget goes inward
		{6, 4, 1},   // non-divisible: round down, never oversubscribe
		{16, 1, 16}, // single task gets everything
	}
	for _, tc := range cases {
		var got atomic.Int64
		var runners []Runner
		for i := 0; i < tc.tasks; i++ {
			runners = append(runners, fakeRunner(fmt.Sprintf("task%d", i), 0, func(c *Ctx) {
				got.Store(int64(c.Parallelism))
			}))
		}
		if _, err := RunAll(context.Background(), RunOptions{Runners: runners, Parallelism: tc.parallelism}); err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		if int(got.Load()) != tc.wantInner {
			t.Errorf("parallel=%d tasks=%d: inner budget %d, want %d",
				tc.parallelism, tc.tasks, got.Load(), tc.wantInner)
		}
	}
}

// TestRunAllParallelNoSlowdown guards the anti-scaling regression:
// running the quick suite with 4 workers must not be slower than with 1
// (modulo scheduling noise — on a single-CPU host the best case is a
// tie, so the guard allows a 25% band rather than demanding a speedup).
func TestRunAllParallelNoSlowdown(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock comparison; skipped in -short")
	}
	wall := func(parallelism int) time.Duration {
		start := time.Now()
		if _, err := RunAll(context.Background(), RunOptions{Quick: true, Parallelism: parallelism}); err != nil {
			t.Fatalf("RunAll(parallel=%d): %v", parallelism, err)
		}
		return time.Since(start)
	}
	p1 := wall(1)
	p4 := wall(4)
	t.Logf("quick suite wall time: parallel=1 %v, parallel=4 %v", p1, p4)
	if p4 > p1+p1/4 {
		t.Errorf("parallel=4 (%v) is >1.25x slower than parallel=1 (%v): scheduler anti-scales", p4, p1)
	}
}
