// Command zipstat is a live terminal dashboard over one or more zipserverd
// instances. Each interval it polls every target's GET /metrics (canonical
// obs snapshot) and GET /healthz, and renders a fleet table: request rate,
// cache hit rate, latency quantiles (p50/p95/p99 estimated from the
// server's log-bucketed latency histogram), circuit-breaker states, and
// fault-point hit counts per instance.
//
// Usage:
//
//	zipstat http://127.0.0.1:8321 http://127.0.0.1:8322
//	zipstat -interval 1s http://host:8321
//	zipstat -once -json http://127.0.0.1:8321   # one poll, machine-readable
//
// In watch mode the RPS column is the request delta between consecutive
// polls divided by the poll gap; the first sample (and -once mode) falls
// back to lifetime requests / uptime. A target that fails either endpoint
// renders as a DOWN row instead of aborting the dashboard; plain -once
// still exits 0 so a partially-degraded fleet can be inspected. Scripts
// that need a hard health probe add -require: -once -require exits
// non-zero listing every unreachable address.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/zipchannel/zipchannel/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "zipstat:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		interval = flag.Duration("interval", 2*time.Second, "poll interval in watch mode")
		once     = flag.Bool("once", false, "poll each target once, print, and exit")
		require  = flag.Bool("require", false, "with -once: exit non-zero if any target is unreachable, listing all of them")
		jsonOut  = flag.Bool("json", false, "with -once: emit one JSON array of per-target stats")
		timeout  = flag.Duration("timeout", 5*time.Second, "per-request HTTP timeout")
	)
	flag.Parse()
	targets := flag.Args()
	if len(targets) == 0 {
		targets = []string{"http://127.0.0.1:8321"}
	}
	for i, t := range targets {
		targets[i] = strings.TrimRight(t, "/")
	}
	httpc := &http.Client{Timeout: *timeout}

	if *once {
		stats := collectAll(httpc, targets, nil)
		if *jsonOut {
			b, err := json.MarshalIndent(stats, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(b))
		} else {
			renderTable(os.Stdout, stats)
		}
		if down := unreachableTargets(stats); *require && len(down) > 0 {
			return fmt.Errorf("unreachable targets: %s", strings.Join(down, ", "))
		}
		return nil
	}
	if *jsonOut {
		return fmt.Errorf("-json requires -once (watch mode is for humans)")
	}
	if *require {
		return fmt.Errorf("-require requires -once (watch mode renders DOWN rows instead)")
	}

	var prev []instanceStats
	for {
		stats := collectAll(httpc, targets, prev)
		// Repaint in place: cursor home + clear-to-end keeps the table
		// steady instead of scrolling.
		fmt.Print("\x1b[H\x1b[2J")
		fmt.Printf("zipstat  %s  (interval %s, %d target(s); Ctrl-C to quit)\n\n",
			time.Now().Format("15:04:05"), *interval, len(targets))
		renderTable(os.Stdout, stats)
		prev = stats
		time.Sleep(*interval)
	}
}

// instanceStats is one target's dashboard row — also the -once -json
// schema, so every field a script needs is exported here.
type instanceStats struct {
	Target  string `json:"target"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`

	Version        string  `json:"version,omitempty"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	UptimeSimSteps uint64  `json:"uptime_sim_steps"`

	Requests    uint64  `json:"requests"`
	RPS         float64 `json:"rps"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	HitRate     float64 `json:"hit_rate"` // hits/(hits+misses), 0 when no lookups

	LatencyP50US float64 `json:"latency_p50_us"`
	LatencyP95US float64 `json:"latency_p95_us"`
	LatencyP99US float64 `json:"latency_p99_us"`

	Breakers map[string]string `json:"breakers,omitempty"` // codec/op -> state
	Faults   map[string]uint64 `json:"faults,omitempty"`   // fault.* counters

	// Overload mirrors the healthz admission section.
	OverloadState string `json:"overload_state,omitempty"`
	ShedTotal     uint64 `json:"shed_total"`
	QueueDepth    int    `json:"queue_depth"`

	// sampledAt feeds the watch-mode RPS delta; not part of the JSON
	// contract.
	sampledAt time.Time
}

// health mirrors the subset of the server's /healthz body zipstat uses.
type health struct {
	Version        string            `json:"version"`
	UptimeSimSteps uint64            `json:"uptime_sim_steps"`
	UptimeSeconds  float64           `json:"uptime_seconds"`
	Breakers       map[string]string `json:"breakers"`
	Overload       struct {
		State      string `json:"state"`
		QueueDepth int    `json:"queue_depth"`
		Shed       uint64 `json:"shed_total"`
	} `json:"overload"`
}

// collectAll polls every target, computing RPS against the matching entry
// of the previous round when available.
func collectAll(httpc *http.Client, targets []string, prev []instanceStats) []instanceStats {
	stats := make([]instanceStats, len(targets))
	for i, target := range targets {
		st := collect(httpc, target)
		if st.Healthy {
			if prev != nil && i < len(prev) && prev[i].Healthy && prev[i].Requests <= st.Requests {
				if dt := st.sampledAt.Sub(prev[i].sampledAt).Seconds(); dt > 0 {
					st.RPS = float64(st.Requests-prev[i].Requests) / dt
				}
			} else if st.UptimeSeconds > 0 {
				st.RPS = float64(st.Requests) / st.UptimeSeconds
			}
		}
		stats[i] = st
	}
	return stats
}

// unreachableTargets lists every target that failed collection, in input
// order — the -once -require exit message names all of them, not just the
// first, so one probe run diagnoses the whole fleet.
func unreachableTargets(stats []instanceStats) []string {
	var down []string
	for _, st := range stats {
		if !st.Healthy {
			down = append(down, st.Target)
		}
	}
	return down
}

// collect polls one target's /metrics and /healthz and reduces them to a
// dashboard row. Any failure marks the instance unhealthy with the error
// preserved — a dead instance is a row, not a crashed dashboard.
func collect(httpc *http.Client, target string) instanceStats {
	st := instanceStats{Target: target, sampledAt: time.Now()}
	snap, err := fetchSnapshot(httpc, target+"/metrics")
	if err != nil {
		st.Error = err.Error()
		return st
	}
	var h health
	if err := fetchJSON(httpc, target+"/healthz", &h); err != nil {
		st.Error = err.Error()
		return st
	}
	st.Healthy = true
	st.Version = h.Version
	st.UptimeSeconds = h.UptimeSeconds
	st.UptimeSimSteps = h.UptimeSimSteps
	if len(h.Breakers) > 0 {
		st.Breakers = h.Breakers
	}
	st.OverloadState = h.Overload.State
	st.QueueDepth = h.Overload.QueueDepth
	st.ShedTotal = h.Overload.Shed

	st.Requests = snap.Counters["server.requests"]
	st.CacheHits = snap.Counters["server.cache.hits"]
	st.CacheMisses = snap.Counters["server.cache.misses"]
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		st.HitRate = float64(st.CacheHits) / float64(lookups)
	}
	if hs, ok := snap.Histograms["server.request_latency_us"]; ok && hs.Count > 0 {
		q := hs.Quantiles(0.5, 0.95, 0.99)
		st.LatencyP50US, st.LatencyP95US, st.LatencyP99US = q[0], q[1], q[2]
	}
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "fault.") {
			if st.Faults == nil {
				st.Faults = map[string]uint64{}
			}
			st.Faults[name] = v
		}
	}
	return st
}

func fetchSnapshot(httpc *http.Client, url string) (*obs.Snapshot, error) {
	var snap obs.Snapshot
	if err := fetchJSON(httpc, url, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

func fetchJSON(httpc *http.Client, url string, dst any) error {
	resp, err := httpc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// renderTable prints the fleet table plus a fault-count detail line for
// any instance with nonzero fault counters.
func renderTable(w io.Writer, stats []instanceStats) {
	fmt.Fprintf(w, "%-28s %9s %8s %6s %9s %9s %9s  %s\n",
		"TARGET", "REQS", "RPS", "HIT%", "p50(us)", "p95(us)", "p99(us)", "BREAKERS")
	for _, st := range stats {
		if !st.Healthy {
			fmt.Fprintf(w, "%-28s DOWN: %s\n", st.Target, st.Error)
			continue
		}
		fmt.Fprintf(w, "%-28s %9d %8.1f %6.1f %9.0f %9.0f %9.0f  %s\n",
			st.Target, st.Requests, st.RPS, 100*st.HitRate,
			st.LatencyP50US, st.LatencyP95US, st.LatencyP99US, breakerSummary(st.Breakers))
	}
	// Degraded-mode detail lines: only instances that are actually shedding
	// or saturated get one, so a healthy fleet's table is unchanged.
	for _, st := range stats {
		var parts []string
		if st.OverloadState != "" && st.OverloadState != "ok" {
			parts = append(parts, "overload="+st.OverloadState)
		}
		if st.ShedTotal > 0 {
			parts = append(parts, fmt.Sprintf("shed=%d queue=%d", st.ShedTotal, st.QueueDepth))
		}
		if len(parts) > 0 {
			fmt.Fprintf(w, "\n%s degraded: %s\n", st.Target, strings.Join(parts, " "))
		}
	}
	for _, st := range stats {
		if len(st.Faults) == 0 {
			continue
		}
		names := make([]string, 0, len(st.Faults))
		for name := range st.Faults {
			names = append(names, name)
		}
		sort.Strings(names)
		parts := make([]string, len(names))
		for i, name := range names {
			parts[i] = fmt.Sprintf("%s=%d", strings.TrimPrefix(name, "fault."), st.Faults[name])
		}
		fmt.Fprintf(w, "\n%s faults: %s\n", st.Target, strings.Join(parts, " "))
	}
}

// breakerSummary compresses the breaker map: "-" when the target lists
// none, "all closed (n)" when nothing is tripped, else the non-closed
// pairs.
func breakerSummary(breakers map[string]string) string {
	if len(breakers) == 0 {
		return "-"
	}
	var bad []string
	for key, state := range breakers {
		if state != "closed" {
			bad = append(bad, key+"="+state)
		}
	}
	if len(bad) == 0 {
		return fmt.Sprintf("all closed (%d)", len(breakers))
	}
	sort.Strings(bad)
	return strings.Join(bad, " ")
}
