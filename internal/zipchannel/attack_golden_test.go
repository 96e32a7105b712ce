package zipchannel

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/zipchannel/zipchannel/internal/cache"
	"github.com/zipchannel/zipchannel/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenAttacks are seeded attacks covering every rig configuration: the
// paper's full-strength bzip2 attack, its two ablations, the oblivious
// victim, the two Stepper2 attacks, and a run whose cache draws from the
// shared RNG stream for jitter, random replacement and outliers alike.
var goldenAttacks = []struct {
	name string
	run  func(cfg Config) (*Result, error)
	cfg  func(cfg *Config)
}{
	{"bzip2/default", bzip2Golden, func(*Config) {}},
	{"bzip2/no-cat", bzip2Golden, func(c *Config) { c.UseCAT = false }},
	{"bzip2/no-frame-selection", bzip2Golden, func(c *Config) { c.UseFrameSelection = false }},
	{"bzip2/oblivious", bzip2Golden, func(c *Config) { c.Oblivious = true }},
	{"zlib/charset", func(cfg Config) (*Result, error) {
		return ZlibAttack([]byte("meetmebehindtheoldclocktoweratmidnightbringthedocuments"), 0x60, true, cfg)
	}, func(*Config) {}},
	{"lzw/text", func(cfg Config) (*Result, error) {
		return LZWAttack([]byte("the rain in spain falls mainly on the plain, again and again!"), cfg)
	}, func(*Config) {}},
	{"bzip2/random-repl-outliers", bzip2Golden, func(c *Config) {
		c.Cache.Replacement = cache.RandomRepl
		c.Cache.OutlierProb = 0.002
	}},
}

func bzip2Golden(cfg Config) (*Result, error) { return Attack(randomInput(256, 77), cfg) }

// renderGoldenAttacks runs every golden attack under a fresh registry and
// renders its Result (wall-clock Elapsed zeroed) and canonical snapshot.
func renderGoldenAttacks(t *testing.T) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, g := range goldenAttacks {
		cfg := DefaultConfig()
		cfg.Seed = 9
		cfg.Cache.Seed = 9
		g.cfg(&cfg)
		cfg.Obs = obs.NewRegistry()
		res, err := g.run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		res.Elapsed = 0
		rj, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		snap, err := cfg.Obs.Snapshot().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString("=== " + g.name + "\n")
		b.Write(rj)
		b.WriteString("\n")
		b.Write(snap)
	}
	return b.Bytes()
}

// TestAttackSnapshotGolden pins each golden attack's Result and metric
// snapshot byte for byte: a change to how the cache model, the attacker
// or the enclave keep their state must not move a single count or draw.
// Regenerate with -update only for an intended change of attack results.
func TestAttackSnapshotGolden(t *testing.T) {
	got := renderGoldenAttacks(t)
	golden := filepath.Join("testdata", "attacks.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("attacks diverge from golden at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("attacks diverge from golden: got %d lines, want %d", len(gl), len(wl))
	}
}
