// Command zipchannel-sgx runs the paper's first end-to-end attack (§V):
// it leaks the data a simulated SGX enclave compresses with the bzip2
// histogram gadget, via controlled-channel single-stepping, Prime+Probe
// with Intel CAT, and frame selection, then prints the recovered bytes
// and the accuracy against ground truth.
//
// Usage:
//
//	zipchannel-sgx -size 10240                 # the §V-E headline setup
//	zipchannel-sgx -text "attack at dawn"      # leak a chosen secret
//	zipchannel-sgx -size 2048 -no-cat          # ablation
//	zipchannel-sgx -size 64 -oblivious         # the §VIII mitigation
//	zipchannel-sgx -victim lzw -size 2048      # the ncompress gadget (E13)
//	zipchannel-sgx -victim zlib -text "lowercasesecret" -charset
//	zipchannel-sgx -size 2048 -repeat 8 -parallel 4    # repetition sweep
//	zipchannel-sgx -size 2048 -metrics m.json -trace t.ndjson -progress
//
// -repeat N runs N independent attack repetitions, each deterministically
// seeded by splitting -seed per trial, and reports per-trial plus
// aggregate accuracy; -parallel fans the repetitions across workers
// without changing any output byte.
//
// Telemetry: -metrics writes the final counter/gauge/histogram snapshot
// (canonical JSON, byte-identical under a fixed seed), -trace streams
// NDJSON events, -progress prints a live status line to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"
	"unicode"

	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/par"
	"github.com/zipchannel/zipchannel/internal/zipchannel"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "zipchannel-sgx:", err)
		os.Exit(1)
	}
}

// run is the command with its arguments and output streams as
// parameters, so tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("zipchannel-sgx", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		size      = fs.Int("size", 10240, "random secret size in bytes")
		seed      = fs.Int64("seed", 42, "random seed")
		text      = fs.String("text", "", "leak this text instead of random bytes")
		inputFile = fs.String("input", "", "leak this file's contents")
		noCAT     = fs.Bool("no-cat", false, "disable Intel CAT isolation (§V-C1 ablation)")
		noFS      = fs.Bool("no-frame-selection", false, "disable frame selection (§V-C2 ablation)")
		oblivious = fs.Bool("oblivious", false, "attack the §VIII oblivious-histogram victim")
		noise     = fs.Float64("noise", 4, "other-application accesses per transition")
		preview   = fs.Int("preview", 256, "bytes of recovered data to print")
		victim    = fs.String("victim", "bzip2", "gadget to attack: bzip2, zlib, or lzw")
		charset   = fs.Bool("charset", false, "zlib only: assume lowercase-ASCII input (§IV-B)")
		repeat    = fs.Int("repeat", 1, "independent attack repetitions, deterministically seeded from -seed")
		parallel  = fs.Int("parallel", 0, "worker count for repetitions (<=0: GOMAXPROCS); output is identical at any level")
	)
	var cli obs.CLI
	cli.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *repeat < 1 {
		return fmt.Errorf("-repeat must be >= 1")
	}
	// The noise model draws no accesses for a negative or NaN rate, so
	// those ran silently without noise; an infinite rate never ends.
	if *noise < 0 || math.IsNaN(*noise) || math.IsInf(*noise, 0) {
		fs.Usage()
		return fmt.Errorf("-noise must be a finite rate >= 0, got %v", *noise)
	}

	// A chosen secret (text or file) is shared across repetitions; random
	// secrets are regenerated per trial from the trial's split seed.
	var fixed []byte
	switch {
	case *text != "":
		fixed = []byte(*text)
	case *inputFile != "":
		b, err := os.ReadFile(*inputFile)
		if err != nil {
			return err
		}
		fixed = b
	}
	secretLen := *size
	if fixed != nil {
		secretLen = len(fixed)
	}
	// A negative -size would panic in make, and an empty secret would
	// "recover" 0 bytes and report success.
	if secretLen < 1 {
		fs.Usage()
		return fmt.Errorf("the secret must be at least 1 byte, got %d (-size, -text or -input)", secretLen)
	}

	base := zipchannel.DefaultConfig()
	base.UseCAT = !*noCAT
	base.UseFrameSelection = !*noFS
	base.Oblivious = *oblivious
	base.OtherNoiseRate = *noise

	reg, err := cli.Start()
	if err != nil {
		return err
	}
	defer cli.Finish()

	fmt.Fprintf(stderr, "attacking %d secret bytes inside the enclave via the %s gadget (CAT=%v, frame-selection=%v, oblivious=%v, repetitions=%d)...\n",
		secretLen, *victim, base.UseCAT, base.UseFrameSelection, base.Oblivious, *repeat)

	// Each repetition runs against a private registry with its own split
	// seed; registries merge into the shared one in trial order, so the
	// -metrics snapshot is identical at any -parallel level.
	type trial struct {
		input []byte
		res   *zipchannel.Result
		reg   *obs.Registry
	}
	trials := make([]trial, *repeat)
	start := time.Now()
	err = par.ForEach(*parallel, *repeat, func(i int) error {
		cfg := base
		cfg.Seed = *seed
		if *repeat > 1 {
			cfg.Seed = par.SplitSeed(*seed, fmt.Sprintf("trial/%d", i))
		}
		input := fixed
		if input == nil {
			input = make([]byte, *size)
			rand.New(rand.NewSource(cfg.Seed)).Read(input)
		}
		treg := obs.NewRegistry()
		cfg.Obs = treg
		var res *zipchannel.Result
		var err error
		switch *victim {
		case "bzip2":
			res, err = zipchannel.Attack(input, cfg)
		case "zlib":
			res, err = zipchannel.ZlibAttack(input, 0x60, *charset, cfg)
		case "lzw":
			res, err = zipchannel.LZWAttack(input, cfg)
		default:
			return fmt.Errorf("unknown victim %q (bzip2, zlib, lzw)", *victim)
		}
		if err != nil {
			return fmt.Errorf("trial %d: %w", i, err)
		}
		trials[i] = trial{input: input, res: res, reg: treg}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range trials {
		reg.Merge(trials[i].reg)
	}
	fmt.Fprintf(stderr, "done in %s\n", time.Since(start).Round(time.Millisecond))

	if *repeat == 1 {
		res := trials[0].res
		fmt.Fprintln(stdout, res)
		fmt.Fprintf(stdout, "cache: %d hits, %d misses, %d evictions, %d flushes\n",
			res.CacheHits, res.CacheMisses, res.CacheEvictions, res.CacheFlushes)
		fmt.Fprintf(stdout, "recovery: %d/%d bytes pinned directly, %d corrected by redundancy\n",
			res.KnownBytes-res.CorrectedBytes, secretLen, res.CorrectedBytes)

		n := min(*preview, len(res.Recovered))
		fmt.Fprintf(stdout, "\nrecovered data (first %d bytes):\n%s\n", n, printable(res.Recovered[:n]))
		return cli.Finish()
	}

	var bitSum, byteSum, bitMin float64
	bitMin = 1
	for i := range trials {
		res := trials[i].res
		fmt.Fprintf(stdout, "trial %2d: %s\n", i, res)
		bitSum += res.BitAcc
		byteSum += res.ByteAcc
		if res.BitAcc < bitMin {
			bitMin = res.BitAcc
		}
	}
	n := float64(*repeat)
	fmt.Fprintf(stdout, "\naggregate over %d trials: mean bit acc %.2f%%, mean byte acc %.2f%%, worst bit acc %.2f%%\n",
		*repeat, 100*bitSum/n, 100*byteSum/n, 100*bitMin)
	return cli.Finish()
}

func printable(b []byte) string {
	out := make([]rune, len(b))
	for i, c := range b {
		if unicode.IsPrint(rune(c)) && c < 0x80 {
			out[i] = rune(c)
		} else {
			out[i] = '.'
		}
	}
	return string(out)
}
