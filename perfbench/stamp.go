package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// host identifies the machine a result was measured on. Two results are
// comparable only when their hosts are equal.
type host struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// stamp records the host and run details of a result.
type stamp struct {
	Host     host    `json:"host"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Commit identifies the measured code: a SHA-256 over the Go sources,
	// go.mod files and BENCHMARK.json of the checkout, so it works in a
	// checkout that is not a git repository.
	Commit  string         `json:"commit"`
	Samples map[string]int `json:"samples"`
	// StealPct is the share of host CPU time the hypervisor stole during
	// the measured rounds.
	StealPct float64 `json:"steal_pct"`
}

func newStamp(workload string, o opts, oc *outcome) stamp {
	return stamp{
		Host: host{
			CPUModel:   cpuModel(),
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
		},
		Workload: workload,
		Seed:     o.seed,
		Seconds:  o.dur.Seconds(),
		Trace:    o.trace,
		Commit:   sourceDigest("."),
		Samples:  oc.samples,
		StealPct: 100 * oc.steal,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every .go, go.mod and BENCHMARK.json file under
// root in path order, skipping hidden directories (build outputs live in
// .bench_build). Empty when nothing can be read.
func sourceDigest(root string) string {
	h := sha256.New()
	n := 0
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if name := d.Name(); !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "BENCHMARK.json" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
		n++
		return nil
	})
	if err != nil || n == 0 {
		return ""
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// compareMain compares two --out records metric by metric. It refuses
// records from different hosts, workloads or modes, and marks a metric
// whose change is worse than its bound in BENCHMARK.json.
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: compare OLD.json NEW.json")
	}
	sp, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	var recs [2]record
	for i, p := range args {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return fmt.Errorf("parsing %s: %w", p, err)
		}
	}
	return compare(recs[0], recs[1], sp, w)
}

func compare(old, cur record, sp *spec, w io.Writer) error {
	if old.Stamp.Host != cur.Stamp.Host {
		return fmt.Errorf("results come from different hosts: %+v vs %+v", old.Stamp.Host, cur.Stamp.Host)
	}
	if old.Stamp.Workload != cur.Stamp.Workload || old.Stamp.Trace != cur.Stamp.Trace {
		return fmt.Errorf("results measure different things: %s (trace %v) vs %s (trace %v)",
			old.Stamp.Workload, old.Stamp.Trace, cur.Stamp.Workload, cur.Stamp.Trace)
	}
	bounds := map[string]metricSpec{}
	for _, m := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		bounds[m.Name] = m
	}
	fmt.Fprintf(w, "%s: %s -> %s\n", cur.Stamp.Workload, old.Stamp.Commit, cur.Stamp.Commit)
	for _, name := range sortedKeys(cur.Result.Metrics) {
		a, ok := old.Result.Metrics[name]
		if !ok {
			continue
		}
		b := cur.Result.Metrics[name]
		change := 0.0
		if a.Value != 0 {
			change = (b.Value - a.Value) / math.Abs(a.Value)
		}
		verdict := ""
		if m, ok := bounds[name]; ok && m.Bound > 0 {
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			if worse > m.Bound {
				verdict = fmt.Sprintf("  WORSE than bound %.0f%%", 100*m.Bound)
			}
		}
		fmt.Fprintf(w, "  %-32s %14.6g -> %14.6g %s  %+7.2f%%%s\n", name, a.Value, b.Value, b.Unit, 100*change, verdict)
	}
	return nil
}
