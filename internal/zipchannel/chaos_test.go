package zipchannel

import (
	"os"
	"testing"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
)

// chaosAttackFaults is the measurement-noise profile of make test-chaos:
// jittered timer readings big enough (±160 cycles against a ~120-cycle
// threshold) to flip an unfiltered hit/miss classification, occasional
// failed mprotects (retried with extra kernel noise), and injected noise
// storms inside the attack window.
const chaosAttackFaults = "attacker.pp.timer=latency:0.08:160," +
	"sgx.stepper.protect=error:0.01," +
	"sgx.stepper.transition=latency:0.02:4"

func chaosAttackConfig(t *testing.T, seed int64) Config {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Obs = obs.NewRegistry()
	cfg.Faults = fault.NewRegistry(seed + 1)
	if err := cfg.Faults.ArmAll(chaosAttackFaults); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestChaosAttackRecoversUnderInjectedNoise: each attack's recovery
// must survive the chaos profile — the median filter absorbs the timer
// jitter, protect retries absorb the failed flips, and the §V-D
// redundancy (bzip2) or the recovery's local damage (zlib, lzw) absorbs
// whatever the noise storms turn into unknown observations. bzip2 keeps
// the paper's headline >99%; the two-array floors are the lowest bit
// accuracy of chaos seeds 1–40 on these texts, rounded down (zlib
// 0.925, lzw 0.931; seed 9 gives 0.970 and 0.989).
func TestChaosAttackRecoversUnderInjectedNoise(t *testing.T) {
	random := randomInput(2048, 42)
	for _, tc := range []struct {
		name       string
		run        func(Config) (*Result, error)
		step       string // the stepper's metric prefix
		iterations int    // the clean run's count: one per loop iteration
		bitFloor   float64
	}{
		{"bzip2", func(c Config) (*Result, error) { return Attack(random, c) }, "sgx.step", len(random), 0.99},
		{"zlib", func(c Config) (*Result, error) { return ZlibAttack(lowercaseText, 0x60, true, c) },
			"sgx.step2", len(lowercaseText) - 2, 0.92},
		{"lzw", func(c Config) (*Result, error) { return LZWAttack(rainText, c) }, "sgx.step2", len(rainText) - 1, 0.93},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := chaosAttackConfig(t, 9)
			res, err := tc.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("chaos result: %s", res)
			if res.BitAcc < tc.bitFloor {
				t.Errorf("bit accuracy under injected noise = %.4f, want >= %.2f", res.BitAcc, tc.bitFloor)
			}
			if res.Iterations != tc.iterations {
				t.Errorf("iterations = %d, want %d (protect retries must not drop steps)", res.Iterations, tc.iterations)
			}

			// The faults must actually have fired — otherwise this test
			// is vacuously green.
			snap := cfg.Obs.Snapshot()
			for _, c := range []string{
				"fault.attacker.pp.timer.injected",
				"fault.sgx.stepper.protect.injected",
				"fault.sgx.stepper.transition.injected",
				"pp.noisy_reads",
				tc.step + ".protect_retries",
				tc.step + ".noise_storms",
			} {
				if snap.Counters[c] == 0 {
					t.Errorf("counter %s = 0; the chaos profile did not exercise its site", c)
				}
			}
		})
	}
}

// TestChaosAttackReplayDeterministic: one seed, two runs, identical
// injected faults and identical recovery — the whole point of driving
// injection from par.SplitSeed streams.
func TestChaosAttackReplayDeterministic(t *testing.T) {
	input := randomInput(1024, 7)
	run := func() (*Result, *obs.Snapshot) {
		res, err := Attack(input, chaosAttackConfig(t, 31))
		if err != nil {
			t.Fatal(err)
		}
		return res, nil
	}
	a, _ := run()
	b, _ := run()
	if string(a.Recovered) != string(b.Recovered) {
		t.Error("recovered bytes differ between identical chaos runs")
	}
	if a.Iterations != b.Iterations || a.UnknownObs != b.UnknownObs ||
		a.Remaps != b.Remaps || a.SimSteps != b.SimSteps ||
		a.CacheHits != b.CacheHits || a.CacheMisses != b.CacheMisses {
		t.Errorf("replay diverged:\n  run1: %+v\n  run2: %+v", a, b)
	}
}

// TestChaosMedianFilterCarriesTheAttack: ablation of the resilience
// mechanism itself. With a single unfiltered timer reading per line
// (TimerSamples=1) the same jitter must do real damage relative to the
// filtered run — otherwise the filter is dead code and the chaos profile
// proves nothing.
func TestChaosMedianFilterCarriesTheAttack(t *testing.T) {
	input := randomInput(1024, 13)

	filtered, err := Attack(input, chaosAttackConfig(t, 17))
	if err != nil {
		t.Fatal(err)
	}
	raw := chaosAttackConfig(t, 17)
	raw.TimerSamples = 1
	unfiltered, err := Attack(input, raw)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("filtered:   %s", filtered)
	t.Logf("unfiltered: %s", unfiltered)
	if filtered.BitAcc < 0.99 {
		t.Errorf("filtered bit accuracy = %.4f, want >= 0.99", filtered.BitAcc)
	}
	if unfiltered.UnknownObs <= filtered.UnknownObs {
		t.Errorf("unfiltered run saw %d unknown observations vs %d filtered — jitter had no effect to filter",
			unfiltered.UnknownObs, filtered.UnknownObs)
	}
}

// TestChaosAttackFull10KB is the acceptance run (>99% of a 10 KB buffer
// under injected cache noise). It costs tens of seconds, so tier-1 runs
// skip it; make test-chaos sets ZIPCHAOS_FULL=1.
func TestChaosAttackFull10KB(t *testing.T) {
	if os.Getenv("ZIPCHAOS_FULL") == "" {
		t.Skip("set ZIPCHAOS_FULL=1 to run the 10 KB chaos acceptance attack")
	}
	input := randomInput(10<<10, 1234)
	res, err := Attack(input, chaosAttackConfig(t, 99))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("10 KB chaos result: %s", res)
	if res.BitAcc < 0.99 {
		t.Errorf("10 KB bit accuracy under injected noise = %.4f, want >= 0.99", res.BitAcc)
	}
}
