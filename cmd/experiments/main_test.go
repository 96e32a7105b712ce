package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"os"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestSGXQuickGolden checks fresh quick runs against their checked-in
// goldens byte for byte: `experiments -run sgx -quick -json` against the
// manifest in testdata/sgx-quick.json, and the SHA-256 of the whole quick
// suite (`-run all -quick -json`) against testdata/quick-all.sha256. The
// manifests embed each experiment's full telemetry snapshot, so any
// change to a seeded result or counter shows here. -update (run by
// `make golden`) rewrites both files.
func TestSGXQuickGolden(t *testing.T) {
	for _, tc := range []struct {
		name, golden string
		args         []string
		digest       bool // compare the output's SHA-256, not its bytes
	}{
		{"sgx", "testdata/sgx-quick.json", []string{"-run", "sgx", "-quick", "-json"}, false},
		{"all", "testdata/quick-all.sha256", []string{"-run", "all", "-quick", "-json"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			got := out.Bytes()
			if tc.digest {
				sum := sha256.Sum256(got)
				got = []byte(hex.EncodeToString(sum[:]) + "\n")
			}
			if *updateGolden {
				if err := os.WriteFile(tc.golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				if tc.digest {
					t.Errorf("quick-suite digest %s, %s has %s", bytes.TrimSpace(got), tc.golden, bytes.TrimSpace(want))
				} else {
					t.Errorf("quick manifest differs from %s (%d vs %d bytes)", tc.golden, len(got), len(want))
				}
			}
		})
	}
}
