package core_test

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/zipchannel/zipchannel/internal/core"
	"github.com/zipchannel/zipchannel/internal/corpus"
	"github.com/zipchannel/zipchannel/internal/isa"
	"github.com/zipchannel/zipchannel/internal/victims"
	"github.com/zipchannel/zipchannel/internal/vm"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenVictims are the victims of the taint benchmark workload, in its
// order and with its bzip2 options.
var goldenVictims = []struct {
	name  string
	build func() *isa.Program
}{
	{"zlib", victims.ZlibInsertString},
	{"lzw", victims.LZWHashProbe},
	{"bzip2", func() *isa.Program { return victims.BzipFtab(victims.BzipFtabOptions{FtabPad: 20}) }},
	{"aes", victims.AESFirstRound},
	{"memcpy", victims.Memcpy},
}

// renderGoldenReports renders the default-Config report of every golden
// victim on a seeded 2 KiB English text and a seeded 2 KiB random input.
func renderGoldenReports(t *testing.T) []byte {
	t.Helper()
	const n = 2 << 10
	rng := rand.New(rand.NewSource(13))
	text := corpus.EnglishText(rng, n)[:n]
	rnd := make([]byte, n)
	rng.Read(rnd)

	var b bytes.Buffer
	for _, v := range goldenVictims {
		prog := v.build()
		for _, in := range []struct {
			kind  string
			input []byte
		}{{"text", text}, {"random", rnd}} {
			m, err := vm.NewFlat(prog)
			if err != nil {
				t.Fatalf("%s: NewFlat: %v", v.name, err)
			}
			m.SetInput(in.input)
			a := core.New(core.Config{})
			a.Attach(m)
			if err := m.Run(); err != nil {
				t.Fatalf("%s/%s: Run: %v", v.name, in.kind, err)
			}
			b.WriteString("=== " + v.name + " / " + in.kind + "\n")
			b.WriteString(a.Report(prog.Name).String())
		}
	}
	return b.Bytes()
}

// TestReportGolden pins the full rendered reports, control-flow samples'
// flag tag sets included, byte for byte. Regenerate with -update only
// for an intended change of analysis results.
func TestReportGolden(t *testing.T) {
	got := renderGoldenReports(t)
	golden := filepath.Join("testdata", "reports.golden")
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
				t.Fatalf("reports diverge from golden at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("reports diverge from golden: got %d lines, want %d", len(gl), len(wl))
	}
}
