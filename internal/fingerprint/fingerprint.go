// Package fingerprint implements the paper's second end-to-end attack
// (§VI): identifying which file Bzip2 is compressing by Flush+Reload
// monitoring of two cache lines — the entry points of mainSort() and
// fallbackSort() in the shared libbz2. The input-dependent control flow
// of Fig 6 (full blocks → mainSort, short/degenerate blocks →
// fallbackSort, too-repetitive blocks → abandon mid-way) gives each file
// a distinctive 2×10,000 boolean trace, which a small neural network
// classifies (Figs 7 and 8).
package fingerprint

import (
	"fmt"
	"math/rand"

	"github.com/zipchannel/zipchannel/internal/attacker"
	"github.com/zipchannel/zipchannel/internal/cache"
	"github.com/zipchannel/zipchannel/internal/compress/bwt"
	"github.com/zipchannel/zipchannel/internal/corpus"
	"github.com/zipchannel/zipchannel/internal/nn"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/par"
)

// Func identifies which sorting function is executing.
type Func uint8

// Sorting functions, the two monitored cache lines.
const (
	FuncNone Func = iota
	FuncMain
	FuncFallback
)

// Interval is a time span during which one function executes.
type Interval struct {
	Start, End uint64 // cycles
	Fn         Func
}

// Timeline is the victim's execution profile: which sort function ran
// when, in abstract cycles derived from the compressor's reported work.
type Timeline struct {
	Intervals []Interval
	Total     uint64
}

// timelineTracer converts bwt.Tracer callbacks into a Timeline. Work
// units map 1:1 to cycles; block setup (RLE1/MTF/Huffman) contributes
// per-block overhead outside both functions.
type timelineTracer struct {
	bwt.BaseTracer
	tl        *Timeline
	cur       Func
	curStart  uint64
	now       uint64
	blockOver uint64
}

func (t *timelineTracer) flush() {
	if t.cur != FuncNone && t.now > t.curStart {
		t.tl.Intervals = append(t.tl.Intervals, Interval{Start: t.curStart, End: t.now, Fn: t.cur})
	}
	t.cur = FuncNone
}

// BlockStart implements bwt.Tracer.
func (t *timelineTracer) BlockStart(_, rawLen int) {
	t.flush()
	// Non-sort work between blocks (RLE1, MTF, Huffman of the previous
	// block): neither monitored line is touched.
	t.now += t.blockOver + uint64(rawLen)
}

// MainSortEnter implements bwt.Tracer.
func (t *timelineTracer) MainSortEnter() {
	t.flush()
	t.cur = FuncMain
	t.curStart = t.now
}

// MainSortAbandon implements bwt.Tracer.
func (t *timelineTracer) MainSortAbandon(int) {
	t.flush()
}

// FallbackSortEnter implements bwt.Tracer.
func (t *timelineTracer) FallbackSortEnter() {
	t.flush()
	t.cur = FuncFallback
	t.curStart = t.now
}

// Work implements bwt.Tracer.
func (t *timelineTracer) Work(units int) {
	t.now += uint64(units)
}

// BuildTimeline compresses data and returns the victim's sort-function
// timeline.
func BuildTimeline(data []byte, opts bwt.Options) (*Timeline, error) {
	tl := &Timeline{}
	tr := &timelineTracer{tl: tl, blockOver: 2000}
	opts.Tracer = tr
	if _, err := bwt.Compress(data, opts); err != nil {
		return nil, fmt.Errorf("fingerprint: %w", err)
	}
	tr.flush()
	tl.Total = tr.now
	return tl, nil
}

// ActiveAt reports which function is executing at the given cycle.
func (tl *Timeline) ActiveAt(cycle uint64) Func {
	for _, iv := range tl.Intervals {
		if cycle >= iv.Start && cycle < iv.End {
			return iv.Fn
		}
	}
	return FuncNone
}

// activeIn reports whether fn executed at any point in (lo, hi].
func (tl *Timeline) activeIn(fn Func, lo, hi uint64) bool {
	for _, iv := range tl.Intervals {
		if iv.Fn == fn && iv.Start < hi && iv.End > lo {
			return true
		}
	}
	return false
}

// NumSamples is the trace length the paper's attacker records ("an
// additional 10,000 iterations", §VI).
const NumSamples = 10000

// Shared-library line addresses of the two monitored function entries;
// arbitrary but fixed, as a real libbz2 mapping would be.
const (
	mainSortLine     = uint64(0x7f40_0000_1000)
	fallbackSortLine = uint64(0x7f40_0000_2440)
)

// SampleConfig tunes the Flush+Reload sampling loop.
type SampleConfig struct {
	// Period is the victim cycles between consecutive attacker samples.
	Period uint64
	// Samples is the trace length (default NumSamples).
	Samples int
	// PhaseJitter shifts the first sample by up to this many cycles,
	// modelling unsynchronized attacker/victim starts.
	PhaseJitter uint64
	// NoiseRate is the expected unrelated shared-library accesses per
	// sample interval (false-hit source); 0 disables.
	NoiseRate float64
	Seed      int64

	// Obs receives the sampling telemetry (fp.samples, fr.* and cache.*
	// counters); nil disables.
	Obs *obs.Registry `json:"-"`
}

// Trace is one recorded 2xN Flush+Reload observation: row 0 monitors
// mainSort, row 1 fallbackSort.
type Trace struct {
	Main     []bool
	Fallback []bool
}

// Sample runs the Flush+Reload loop against the timeline through the
// simulated cache: per interval, the active function's entry line is
// (re)fetched by the victim, and the attacker reloads + flushes both
// monitored lines.
func (tl *Timeline) Sample(cfg SampleConfig) *Trace {
	if cfg.Samples == 0 {
		cfg.Samples = NumSamples
	}
	if cfg.Period == 0 {
		cfg.Period = 1 + tl.Total/uint64(cfg.Samples)
	}
	c := cache.New(cache.Config{Seed: cfg.Seed, Obs: cfg.Obs})
	fr := attacker.NewFlushReload(c, 2)
	fr.AttachObs(cfg.Obs)
	fr.Calibrate(0x600000, 64)
	samples := cfg.Obs.Counter("fp.samples")
	noise := cache.NewNoise(3, cfg.NoiseRate, mainSortLine-1<<14, fallbackSortLine+1<<14, cfg.Seed+7)

	tr := &Trace{
		Main:     make([]bool, cfg.Samples),
		Fallback: make([]bool, cfg.Samples),
	}
	fr.Flush(mainSortLine, fallbackSortLine)
	prev := cfg.PhaseJitter
	idx := 0 // monotonic sweep over the (ordered) intervals
	for s := 0; s < cfg.Samples; s++ {
		now := prev + cfg.Period
		// Victim instruction fetches during (prev, now].
		for idx < len(tl.Intervals) && tl.Intervals[idx].End <= prev {
			idx++
		}
		for k := idx; k < len(tl.Intervals) && tl.Intervals[k].Start < now; k++ {
			if tl.Intervals[k].Fn == FuncMain {
				c.Access(1, mainSortLine)
			} else {
				c.Access(1, fallbackSortLine)
			}
		}
		noise.Tick(c)
		tr.Main[s] = fr.Reload(mainSortLine)
		tr.Fallback[s] = fr.Reload(fallbackSortLine)
		samples.Inc()
		prev = now
	}
	c.Publish()
	return tr
}

// PoolWidth is the feature width per monitored line: 10,000 samples
// max-pooled 10:1 into the paper's 2x1,000 input tensor.
const PoolWidth = 1000

// Features converts a trace into the classifier's input vector
// (max-pooled, values 0/1; an all-idle trace is encoded as the paper's
// timeout value 2).
func Features(tr *Trace) []float64 {
	out := make([]float64, 2*PoolWidth)
	pool := func(row []bool, dst []float64) bool {
		if len(row) == 0 {
			return false
		}
		step := (len(row) + PoolWidth - 1) / PoolWidth
		any := false
		for i := 0; i < PoolWidth; i++ {
			lo := i * step
			hi := min(lo+step, len(row))
			for k := lo; k < hi; k++ {
				if row[k] {
					dst[i] = 1
					any = true
					break
				}
			}
		}
		return any
	}
	anyMain := pool(tr.Main, out[:PoolWidth])
	anyFall := pool(tr.Fallback, out[PoolWidth:])
	if !anyMain && !anyFall {
		// The paper encodes a 5-second timeout with the value 2.
		for i := range out {
			out[i] = 2
		}
	}
	return out
}

// DatasetConfig tunes dataset generation.
type DatasetConfig struct {
	TracesPerFile int // default 40
	BlockSize     int // bwt block size (default: bwt default = 10000)
	WorkFactor    int
	NoiseRate     float64
	// PeriodJitterFrac varies each trace's effective sampling period by
	// up to this fraction, modelling run-to-run victim timing variation
	// (frequency scaling, co-runners) that real traces exhibit.
	PeriodJitterFrac float64
	Seed             int64

	// Parallelism fans independent traces (and per-file timelines) across
	// this many goroutines; <= 1 is sequential. Every trace derives its
	// RNG from its (file, repetition) slot, so the dataset is
	// byte-identical at any parallelism level.
	Parallelism int

	// Obs receives dataset-generation telemetry: the fp.timelines and
	// fp.traces counters, plus an fp.build_dataset span whose wall time
	// lands in WallTotals (never in snapshots).
	Obs *obs.Registry `json:"-"`
}

// BuildDataset generates labelled Flush+Reload traces for the corpus:
// label i = files[i]. The sample period is fixed across the corpus
// (calibrated so the longest compression fits the trace), as a real
// attacker's fixed sampling rate would be.
//
// With cfg.Parallelism > 1, timelines and traces are generated across a
// worker pool. Each trace owns its slot in the output and carries its
// own seed; the per-trace period jitter is drawn sequentially up front
// from the dataset RNG. The resulting dataset is therefore
// byte-identical to a sequential run.
func BuildDataset(files []corpus.File, cfg DatasetConfig) ([]nn.Sample, error) {
	if cfg.TracesPerFile == 0 {
		cfg.TracesPerFile = 40
	}
	span := cfg.Obs.StartSpan("fp.build_dataset")
	defer span.End()
	timelineCtr := cfg.Obs.Counter("fp.timelines")
	traceCtr := cfg.Obs.Counter("fp.traces")
	timelines := make([]*Timeline, len(files))
	err := par.ForEach(cfg.Parallelism, len(files), func(i int) error {
		tl, err := BuildTimeline(files[i].Data, bwt.Options{BlockSize: cfg.BlockSize, WorkFactor: cfg.WorkFactor})
		if err != nil {
			return fmt.Errorf("fingerprint: %s: %w", files[i].Name, err)
		}
		timelines[i] = tl
		timelineCtr.Inc()
		return nil
	})
	if err != nil {
		return nil, err
	}
	var maxTotal uint64
	for _, tl := range timelines {
		if tl.Total > maxTotal {
			maxTotal = tl.Total
		}
	}
	period := 1 + maxTotal/uint64(NumSamples-500)

	// Per-trace periods come from one sequential pass over the dataset
	// RNG, so the jitter stream does not depend on trace scheduling.
	rng := rand.New(rand.NewSource(cfg.Seed))
	total := len(files) * cfg.TracesPerFile
	periods := make([]uint64, total)
	for k := range periods {
		p := period
		if cfg.PeriodJitterFrac > 0 {
			scale := 1 + cfg.PeriodJitterFrac*(2*rng.Float64()-1)
			p = uint64(float64(period) * scale)
			if p == 0 {
				p = 1
			}
		}
		periods[k] = p
	}

	out := make([]nn.Sample, total)
	err = par.ForEach(cfg.Parallelism, total, func(k int) error {
		i, r := k/cfg.TracesPerFile, k%cfg.TracesPerFile
		seed := cfg.Seed + int64(i*100003+r*7919)
		p := periods[k]
		tr := timelines[i].Sample(SampleConfig{
			Period:      p,
			PhaseJitter: uint64(seed%31) * p / 31,
			NoiseRate:   cfg.NoiseRate,
			Seed:        seed,
			Obs:         cfg.Obs,
		})
		out[k] = nn.Sample{X: Features(tr), Label: i}
		traceCtr.Inc()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
