// Command zipfingerprint runs the paper's second end-to-end attack (§VI):
// it generates Flush+Reload traces of the bzip2 compressor's
// mainSort/fallbackSort activity for a file corpus, trains the
// classifier, and prints the resulting confusion matrix (Figs 7 and 8).
//
// Usage:
//
//	zipfingerprint -experiment fig7 -traces 40
//	zipfingerprint -experiment fig8
//	zipfingerprint -experiment fig7 -metrics m.json -progress
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"github.com/zipchannel/zipchannel/internal/corpus"
	"github.com/zipchannel/zipchannel/internal/fingerprint"
	"github.com/zipchannel/zipchannel/internal/nn"
	"github.com/zipchannel/zipchannel/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "zipfingerprint:", err)
		os.Exit(1)
	}
}

// run is the command with its arguments and output streams as
// parameters, so tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("zipfingerprint", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("experiment", "fig7", "fig7 (21-file corpus) or fig8 (repetitiveness series)")
		traces   = fs.Int("traces", 40, "traces recorded per file")
		noise    = fs.Float64("noise", 0.05, "unrelated shared-library accesses per sample")
		epochs   = fs.Int("epochs", 30, "training epochs")
		seed     = fs.Int64("seed", 7, "seed for corpus, traces, and training")
		parallel = fs.Int("parallel", 0, "worker count for trace simulation (<=0: GOMAXPROCS); output is identical at any level")
	)
	var cli obs.CLI
	cli.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// BuildDataset and nn.Train read 0 as "use the default", and
	// nn.Train reads a negative epoch count as no training at all.
	if *traces < 1 {
		fs.Usage()
		return fmt.Errorf("-traces must be at least 1, got %d", *traces)
	}
	if *epochs < 1 {
		fs.Usage()
		return fmt.Errorf("-epochs must be at least 1, got %d", *epochs)
	}
	// The noise model draws no accesses for a negative or NaN rate, so
	// those ran silently without noise; an infinite rate never ends.
	if *noise < 0 || math.IsNaN(*noise) || math.IsInf(*noise, 0) {
		fs.Usage()
		return fmt.Errorf("-noise must be a finite rate >= 0, got %v", *noise)
	}

	var files []corpus.File
	switch *exp {
	case "fig7":
		files = corpus.BrotliLike(*seed)
	case "fig8":
		files = corpus.RepetitivenessSeries(*seed, 20000)
	default:
		return fmt.Errorf("unknown experiment %q (fig7 or fig8)", *exp)
	}

	reg, err := cli.Start()
	if err != nil {
		return err
	}
	defer cli.Finish()

	fmt.Fprintf(stderr, "recording %d Flush+Reload traces for each of %d files...\n", *traces, len(files))
	ds, err := fingerprint.BuildDataset(files, fingerprint.DatasetConfig{
		TracesPerFile: *traces,
		NoiseRate:     *noise,
		Seed:          *seed,
		Parallelism:   *parallel,
		Obs:           reg,
	})
	if err != nil {
		return err
	}
	train, _, test := nn.Split(ds, 0.8, 0.1, *seed+1)
	fmt.Fprintf(stderr, "training on %d traces, testing on %d...\n", len(train), len(test))

	m, err := nn.New(*seed+2, 2*fingerprint.PoolWidth, 64, len(files))
	if err != nil {
		return err
	}
	epochCtr := reg.Counter("nn.epochs")
	lossGauge := reg.Gauge("nn.loss")
	if _, err := m.Train(train, nn.TrainConfig{
		Epochs: *epochs, LR: 0.02, LRDecay: 0.95,
		Verbose: func(epoch int, loss float64) {
			epochCtr.Inc()
			lossGauge.Set(loss)
			if epoch%10 == 9 {
				fmt.Fprintf(stderr, "  epoch %2d: loss %.4f\n", epoch+1, loss)
			}
		},
	}); err != nil {
		return err
	}

	cm, err := m.ConfusionMatrix(test)
	if err != nil {
		return err
	}
	acc, err := m.Accuracy(test)
	if err != nil {
		return err
	}
	reg.Gauge("nn.test_acc").Set(acc)
	fmt.Fprintf(stdout, "\nconfusion matrix (rows = actual file, columns = prediction):\n")
	printConfusion(stdout, files, cm)
	fmt.Fprintf(stdout, "\ntest accuracy: %.2f (chance: %.3f)\n", acc, 1/float64(len(files)))
	return cli.Finish()
}

func printConfusion(out io.Writer, files []corpus.File, cm [][]float64) {
	const w = 9
	fmt.Fprintf(out, "%*s", w+2, "")
	for _, f := range files {
		fmt.Fprintf(out, "%*s ", w, trunc(f.Name, w))
	}
	fmt.Fprintln(out)
	for i, row := range cm {
		fmt.Fprintf(out, "%*s  ", w, trunc(files[i].Name, w))
		for _, v := range row {
			fmt.Fprintf(out, "%*.2f ", w, v)
		}
		fmt.Fprintln(out)
	}
}

func trunc(s string, n int) string {
	if len(s) > n {
		return s[:n]
	}
	return s
}
