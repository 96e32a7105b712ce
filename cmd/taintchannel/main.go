// Command taintchannel runs the TaintChannel analyzer (§III) on a victim
// program — one of the built-in gadget miniatures or a .zasm assembly
// file — and prints the leakage report with Fig 2-style taint matrices.
//
// Usage:
//
//	taintchannel -victim zlib -text "attack at dawn"
//	taintchannel -victim bzip2 -random 64
//	taintchannel -file gadget.zasm -input secret.bin -track 3
//	taintchannel -victim bzip2 -random 64 -metrics m.json -trace t.ndjson
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"

	"github.com/zipchannel/zipchannel/internal/core"
	"github.com/zipchannel/zipchannel/internal/isa"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/taint"
	"github.com/zipchannel/zipchannel/internal/victims"
	"github.com/zipchannel/zipchannel/internal/vm"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "taintchannel:", err)
		os.Exit(1)
	}
}

// run is the command with its arguments and output streams as
// parameters, so tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("taintchannel", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		victimName = fs.String("victim", "", "built-in victim: "+strings.Join(victimNames(), ", "))
		file       = fs.String("file", "", "assemble and analyze this .zasm file instead")
		inputFile  = fs.String("input", "", "file whose bytes are the victim's (secret) input")
		text       = fs.String("text", "", "literal input text")
		randomN    = fs.Int("random", 0, "use n random input bytes")
		seed       = fs.Int64("seed", 1, "seed for -random")
		carry      = fs.Bool("carry-aware", false, "sound carry-aware add/sub taint (ablation)")
		track      = fs.Int("track", 0, "print the propagation history of input byte #n (1-based)")
		samples    = fs.Int("samples", 2, "concrete samples kept per gadget")
		disasm     = fs.Bool("disasm", false, "print the victim's disassembly first")
	)
	var cli obs.CLI
	cli.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// core.Config reads 0 as "use the default", so -samples 0 would
	// silently keep 4 samples.
	if *samples < 1 {
		fs.Usage()
		return fmt.Errorf("-samples must be at least 1, got %d", *samples)
	}

	prog, err := loadVictim(*victimName, *file)
	if err != nil {
		return err
	}
	input, err := loadInput(*inputFile, *text, *randomN, *seed)
	if err != nil {
		return err
	}
	if *disasm {
		fmt.Fprintln(stdout, isa.Disassemble(prog))
	}

	machine, err := vm.NewFlat(prog)
	if err != nil {
		return err
	}
	machine.SetInput(input)
	reg, err := cli.Start()
	if err != nil {
		return err
	}
	defer cli.Finish()
	reg.SetSimClock(func() uint64 { return machine.Steps })
	machine.AttachObs(reg)
	cfg := core.Config{CarryAware: *carry, MaxSamplesPerGadget: *samples}
	if *track > 0 {
		cfg.TrackTags = map[taint.Tag]bool{taint.Tag(*track): true}
	}
	analyzer := core.New(cfg)
	analyzer.Attach(machine)
	fmt.Fprintf(stderr, "analyzing %s on %d input bytes...\n", prog.Name, len(input))
	if err := machine.Run(); err != nil {
		return fmt.Errorf("victim execution: %w", err)
	}

	fmt.Fprint(stdout, analyzer.Report(prog.Name))
	if *track > 0 {
		fmt.Fprintf(stdout, "\npropagation history of input byte #%d:\n", *track)
		for _, ev := range analyzer.History(taint.Tag(*track)) {
			fmt.Fprintf(stdout, "  step %6d  pc %4d  %-28s %s\n", ev.Step, ev.PC, ev.Instr, ev.Note)
		}
	}
	return cli.Finish()
}

func victimNames() []string {
	names := make([]string, 0, len(victims.All()))
	for n := range victims.All() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func loadVictim(name, file string) (*isa.Program, error) {
	switch {
	case name != "" && file != "":
		return nil, fmt.Errorf("use either -victim or -file, not both")
	case name != "":
		p, ok := victims.All()[name]
		if !ok {
			return nil, fmt.Errorf("unknown victim %q (have: %s)", name, strings.Join(victimNames(), ", "))
		}
		return p, nil
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return isa.Assemble(file, string(src))
	default:
		return nil, fmt.Errorf("need -victim or -file (victims: %s)", strings.Join(victimNames(), ", "))
	}
}

func loadInput(file, text string, randomN int, seed int64) ([]byte, error) {
	set := 0
	for _, b := range []bool{file != "", text != "", randomN > 0} {
		if b {
			set++
		}
	}
	if set > 1 {
		return nil, fmt.Errorf("use only one of -input, -text, -random")
	}
	switch {
	case file != "":
		return os.ReadFile(file)
	case text != "":
		return []byte(text), nil
	case randomN > 0:
		b := make([]byte, randomN)
		rand.New(rand.NewSource(seed)).Read(b)
		return b, nil
	default:
		return []byte("the quick brown fox jumps over the lazy dog " + strconv.Itoa(0x5752)), nil
	}
}
