package experiments

import (
	"encoding/json"
	"time"

	"github.com/zipchannel/zipchannel/internal/obs"
)

// Manifest is the machine-readable record of one experiment run: what
// ran, with which configuration and seed, the headline metrics, and the
// full telemetry snapshot. cmd/experiments -json emits these.
type Manifest struct {
	Name    string             `json:"name"`
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Quick   bool               `json:"quick"`
	Seed    int64              `json:"seed"`
	Config  any                `json:"config,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
	Lines   []string           `json:"lines"`
	// Snapshot is the canonical metric state after the run (counters,
	// gauges, histograms — see internal/obs). Deterministic under a
	// fixed seed.
	Snapshot *obs.Snapshot `json:"snapshot"`
	// Duration is the run's wall clock. It is deliberately excluded from
	// the JSON document so that -json output is byte-identical under a
	// fixed seed, at any -parallel level; the CLIs report it on stderr.
	Duration time.Duration `json:"-"`
}

// MarshalIndent renders the manifest as indented JSON with a trailing
// newline.
func (m *Manifest) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ExecuteCtx runs one experiment under a fully specified context (the
// scheduler's entry point: it carries the task seed and the trial
// parallelism budget). A nil c.Obs gets a private registry, so the
// manifest always carries a snapshot.
func ExecuteCtx(r Runner, c *Ctx) (*Result, *Manifest, error) {
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	start := time.Now()
	res, err := r.Run(c)
	if err != nil {
		return nil, nil, err
	}
	m := &Manifest{
		Name:     r.Name,
		ID:       res.ID,
		Title:    res.Title,
		Quick:    c.Quick,
		Seed:     res.Seed,
		Config:   res.Config,
		Metrics:  res.Metrics,
		Lines:    res.Lines,
		Snapshot: c.Obs.Snapshot(),
		Duration: time.Since(start),
	}
	return res, m, nil
}
