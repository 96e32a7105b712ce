// Command experiments regenerates the paper's tables and figures (the
// per-experiment index is DESIGN.md §4).
//
// Usage:
//
//	experiments -run all            # everything, full size
//	experiments -run fig7 -quick    # one experiment, reduced size
//	experiments -run sgx -json      # machine-readable manifest on stdout
//	experiments -list
//
// In -json mode, stdout carries one manifest object for a single
// experiment or an array of manifests for -run all; human-readable
// status goes to stderr. The manifest embeds the full telemetry
// snapshot (cache hits/misses, stepper transitions, recovery accuracy
// — see internal/obs), which is deterministic under the fixed
// per-experiment seeds. Wall-clock durations go to stderr only, so
// stdout is byte-identical between runs and across -parallel levels.
//
// -parallel N fans independent experiments (and each experiment's
// internal trials) across N workers; the scheduler's seed-splitting
// keeps every output byte-identical at any level. -seed S
// re-parameterizes every experiment's RNG deterministically from one
// root; 0 (the default) keeps the paper-pinned seeds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/zipchannel/zipchannel/internal/experiments"
	"github.com/zipchannel/zipchannel/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run is the command with its arguments and output streams as
// parameters, so tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("run", "all", "experiment name or 'all'")
		quick    = fs.Bool("quick", false, "reduced input sizes")
		list     = fs.Bool("list", false, "list experiments and exit")
		jsonMode = fs.Bool("json", false, "emit machine-readable manifests on stdout")
		parallel = fs.Int("parallel", 0, "worker count for experiments and their inner trials (<=0: GOMAXPROCS); output is identical at any level")
		rootSeed = fs.Int64("seed", 0, "root seed re-parameterizing every experiment deterministically (0: the paper-pinned seeds)")
	)
	var cli obs.CLI
	cli.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Fprintln(stdout, r.Name)
		}
		return nil
	}

	var runners []experiments.Runner
	single := *name != "all"
	if single {
		r, ok := experiments.Lookup(*name)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *name)
		}
		runners = []experiments.Runner{r}
	} else {
		runners = experiments.All()
	}

	// -metrics/-trace/-progress attach one shared registry across the
	// whole run; each experiment runs against its own private registry so
	// manifests stay per-experiment, and the scheduler merges the private
	// registries into the shared one in registry order.
	reg, err := cli.Start()
	if err != nil {
		return err
	}
	defer cli.Finish()

	var manifests []*experiments.Manifest
	_, runErr := experiments.RunAll(context.Background(), experiments.RunOptions{
		Runners:     runners,
		Quick:       *quick,
		Parallelism: *parallel,
		RootSeed:    *rootSeed,
		Obs:         reg,
		// OnResult arrives in registry order whatever the parallelism, so
		// the streamed output never interleaves or reorders.
		OnResult: func(o *experiments.Outcome) {
			if o.Err != nil {
				fmt.Fprintf(stderr, "=== %s: FAILED: %v\n\n", o.Runner.Name, o.Err)
				return
			}
			mergeMetrics(reg, o.Runner.Name, o.Result.Metrics)
			if *jsonMode {
				manifests = append(manifests, o.Manifest)
				fmt.Fprintf(stderr, "%s ok in %s\n", o.Runner.Name, o.Duration.Round(time.Millisecond))
				return
			}
			fmt.Fprint(stdout, o.Result)
			fmt.Fprintf(stderr, "(%s in %s)\n\n", o.Runner.Name, o.Duration.Round(time.Millisecond))
		},
	})

	if *jsonMode {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if single && len(manifests) == 1 {
			if err := enc.Encode(manifests[0]); err != nil {
				return err
			}
		} else if err := enc.Encode(manifests); err != nil {
			return err
		}
	}
	if runErr != nil {
		return runErr
	}
	return cli.Finish()
}

// mergeMetrics mirrors an experiment's headline metrics into the shared
// -metrics registry as gauges, namespaced by experiment.
func mergeMetrics(reg *obs.Registry, name string, metrics map[string]float64) {
	for k, v := range metrics {
		reg.Gauge(name + "." + k).Set(v)
	}
	reg.Counter("experiments.completed").Inc()
}
