// Command perfbench is the repository's benchmark. It runs one of four
// seeded workloads from a single process, drives the public entry points
// of the serving stack (internal/server over a loopback listener) and of
// the research core (internal/vm, internal/core, internal/zipchannel),
// checks every output, and prints the metrics named in BENCHMARK.json.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of stdout is a JSON object holding the
// end-to-end metrics; with --trace 1 a separate, instrumented run reports
// the per-layer metrics instead. --out FILE also writes the result with
// its host stamp, and
//
//	bash perfbench/run.sh compare OLD.json NEW.json
//
// compares two such files, refusing files from different hosts. See
// perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"syscall"
	"time"
)

// specFile is the benchmark definition, read from the repository root.
const specFile = "BENCHMARK.json"

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last instance is the one measured.
const setupReps = 3

// opts is what a workload gets from the command line.
type opts struct {
	seed  int64
	dur   time.Duration
	trace bool
}

// outcome is what a workload measured: operation counts, metric values by
// name (units come from the spec), sample counts for the stamp, and any
// reason the run is not correct beyond failed operations.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
	problems          []string
	// steal is the mean share of host CPU time stolen during the rounds
	// the metrics come from.
	steal float64
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int{}}
}

// instance is one set-up workload, ready to be measured.
type instance interface {
	// measure runs the end-to-end measurement (trace off).
	measure(o opts) (*outcome, error)
	// ladder runs the instrumented measurement for the per-layer metrics.
	ladder(o opts) (*outcome, error)
	close()
}

// setupFunc sets a workload up; trace adds what the per-layer run needs.
type setupFunc func(seed int64, trace bool) (instance, error)

var workloads = map[string]setupFunc{
	"serve-hot":  func(seed int64, trace bool) (instance, error) { return setupServe(seed, false, trace) },
	"serve-cold": func(seed int64, trace bool) (instance, error) { return setupServe(seed, true, trace) },
	"taint":      setupTaint,
	"sgx":        setupSGX,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what --out writes and compare reads.
type record struct {
	Stamp  stamp  `json:"stamp"`
	Result result `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	if err := runMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve-hot, serve-cold, taint or sgx")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from an instrumented run")
	out := fs.String("out", "", "also write the stamped result to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	setup, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	o := opts{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	oc, err := run(setup, o)
	if err != nil {
		return err
	}
	want := sp.EndToEnd
	if o.trace {
		want = sp.PerLayer
	}
	res, err := assemble(oc, want, o.trace)
	if err != nil {
		return err
	}
	st := newStamp(*name, o, oc)
	printHuman(stdout, *name, st, res, want, oc)
	if *out != "" {
		b, err := json.MarshalIndent(record{Stamp: st, Result: res}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing record: %w", err)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

// run sets the workload up setupReps times (keeping the last instance),
// measures it, and adds the process-level metrics.
func run(setup setupFunc, o opts) (*outcome, error) {
	var setups []float64
	var inst instance
	reps := setupReps
	if o.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = setup(o.seed, o.trace); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()
	var oc *outcome
	var err error
	if o.trace {
		oc, err = inst.ladder(o)
	} else {
		oc, err = inst.measure(o)
	}
	if err != nil {
		return nil, err
	}
	if !o.trace {
		oc.values["setup_s"] = median(setups)
		oc.values["max_rss_mb"] = maxRSSMB()
	}
	oc.samples["setups"] = len(setups)
	return oc, nil
}

// assemble orders the measured values by the spec. Every end-to-end
// metric must have been measured; a per-layer metric that the workload
// does not exercise reads 0. A value the spec does not name is a bug.
func assemble(oc *outcome, want []metricSpec, trace bool) (result, error) {
	res := result{
		Correct:   oc.failed == 0 && len(oc.problems) == 0 && oc.attempted > 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   map[string]metric{},
	}
	named := map[string]bool{}
	for _, m := range want {
		named[m.Name] = true
		v, ok := oc.values[m.Name]
		if !ok && !trace {
			return res, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for k := range oc.values {
		if !named[k] {
			return res, fmt.Errorf("measured metric %s is not in the spec", k)
		}
	}
	return res, nil
}

func printHuman(w io.Writer, name string, st stamp, res result, want []metricSpec, oc *outcome) {
	sb, _ := json.Marshal(st)
	fmt.Fprintf(w, "stamp %s\n", sb)
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%s: attempted %d, failed %d, error_share %.4g, correct %v\n",
		name, res.Attempted, res.Failed, share, res.Correct)
	for _, p := range oc.problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	for _, m := range want {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
}

// maxRSSMB is the process's peak resident set in MB (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 || len(sp.PerLayer) == 0 {
		return nil, fmt.Errorf("%s names no metrics", path)
	}
	return &sp, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
