package zipchannel

import (
	"fmt"

	"github.com/zipchannel/zipchannel/internal/attacker"
	"github.com/zipchannel/zipchannel/internal/cache"
	"github.com/zipchannel/zipchannel/internal/isa"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/recovery"
	"github.com/zipchannel/zipchannel/internal/sgx"
)

// The gadget loops the attacks single-step: each ring lists a loop's
// arrays in loop order (see sgx.Stepper), and the matching *Table
// constant is the index of its table.
var (
	// bzip2's ftab histogram (Listing 3): quadrant[i] = 0, the block[i]
	// load, ftab[j]++.
	bzipRing = []sgx.Array{{Symbol: "quadrant", Store: true}, {Symbol: "block"}, {Symbol: "ftab", Store: true}}
	// zlib's INSERT_STRING (Listing 1): head[ins_h] = i, then the next
	// window byte.
	zlibRing = []sgx.Array{{Symbol: "head", Store: true}, {Symbol: "window"}}
	// ncompress's hash probe (Listing 2): the htab[hp] probe, then the
	// next inputbuf byte.
	lzwRing = []sgx.Array{{Symbol: "htab"}, {Symbol: "inputbuf"}}
)

const (
	bzipTable = 2 // ftab
	zlibTable = 0 // head
	lzwTable  = 0 // htab
)

// rig is the shared attack harness: the cache with CAT partitioning, the
// enclave wired to it, the noise sources, the Prime+Probe attacker, and
// the frame-selection page vetting. All three end-to-end attacks (bzip2,
// zlib, ncompress) run on it.
type rig struct {
	cfg         Config
	c           *cache.Cache
	enc         *sgx.Enclave
	pp          *attacker.PrimeProbe
	monitorWays int
	injectNoise func()
	pages       map[uint64]*pageState
	res         *Result
	// st is the stepper observe drives; frame vetting replays its
	// transition noise.
	st *sgx.Stepper
	// noisy is vetPage's scratch: the sets that fired in a dry run.
	noisy map[int]bool

	// reg is the attack's registry (cfg.Obs or a private one); the
	// attack.* counters below are the single storage for the run's
	// bookkeeping — Result copies them out in finish.
	reg            *obs.Registry
	span           *obs.TraceSpan
	iterations     *obs.Counter
	unknownObs     *obs.Counter
	remaps         *obs.Counter
	vettedPages    *obs.Counter
	framesAccepted *obs.Counter
	framesRejected *obs.Counter
	vetTimeouts    *obs.Counter
}

// newRig builds the harness around a victim program.
func newRig(prog *isa.Program, input []byte, cfg Config) (*rig, error) {
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry() // private: Result counters still fill
	}
	cfg.Cache.Obs = reg
	c := cache.New(cfg.Cache)
	ways := c.Config().Ways
	monitorWays := ways
	if cfg.UseCAT {
		// Reduce the attack core to a single way (§V-C1) and fence the
		// rest of the system into the remaining ways.
		c.SetCoSMask(cosAttack, 0b1)
		c.SetCoSMask(cosOther, (uint64(1)<<uint(ways))-2)
		for _, a := range []int{actorVictim, actorAttacker, actorKernel} {
			c.AssignActor(a, cosAttack)
		}
		c.AssignActor(actorOther, cosOther)
		monitorWays = 1
	}

	alloc := sgx.NewFrameAllocator(0x1000, cfg.Frames)
	enc, err := sgx.NewEnclave(prog, alloc)
	if err != nil {
		return nil, fmt.Errorf("zipchannel: %w", err)
	}
	enc.VM.SetInput(input)
	enc.SetObserver(func(paddr uint64, _ int, _ bool) {
		c.Access(actorVictim, paddr)
	})
	// The victim's retired-instruction count is the run's sim clock:
	// spans and trace events are stamped with it, so fixed-seed runs
	// produce identical timelines.
	reg.SetSimClock(func() uint64 { return enc.VM.Steps })
	enc.AttachObs(reg)
	enc.VM.AttachObs(reg)

	kernel := cache.NewFixedNoise(actorKernel, cfg.KernelNoiseLines, 1<<40, 1<<40+1<<26, cfg.Seed+1)
	other := cache.NewNoise(actorOther, cfg.OtherNoiseRate, 1<<41, 1<<41+1<<28, cfg.Seed+2)
	injectNoise := func() {
		kernel.Tick(c)
		other.Tick(c)
	}
	enc.OnFault = injectNoise

	pp := attacker.NewPrimeProbe(c, actorAttacker, 1<<42, 1<<26)
	pp.AttachObs(reg)
	pp.Calibrate(128)
	// Chaos wiring happens after calibration: the threshold is learned
	// from clean probes (a real attacker calibrates offline), then every
	// live measurement goes through the noisy timer + median filter.
	if cfg.Faults != nil {
		cfg.Faults.AttachObs(reg)
		pp.TimerFault = cfg.Faults.Point("attacker.pp.timer")
		pp.TimerSamples = cfg.TimerSamples
	}

	return &rig{
		cfg:            cfg,
		c:              c,
		enc:            enc,
		pp:             pp,
		monitorWays:    monitorWays,
		injectNoise:    injectNoise,
		pages:          map[uint64]*pageState{},
		noisy:          map[int]bool{},
		res:            &Result{},
		reg:            reg,
		span:           reg.StartSpan("attack.run"),
		iterations:     reg.Counter("attack.iterations"),
		unknownObs:     reg.Counter("attack.unknown_obs"),
		remaps:         reg.Counter("attack.remaps"),
		vettedPages:    reg.Counter("attack.vetted_pages"),
		framesAccepted: reg.Counter("attack.frames_accepted"),
		framesRejected: reg.Counter("attack.frames_rejected"),
		vetTimeouts:    reg.Counter("attack.vet_timeouts"),
	}, nil
}

// observe single-steps the victim over ring, whose table is ring[table],
// with the rig's noise, chaos points and telemetry wired into the
// stepper. Per loop iteration it primes the table page's monitored sets,
// lets the one table access run and probes them, and it returns the
// observed cache-line offsets from the table's base
// (recovery.UnknownObservation where zero or several sets fired). n is
// the expected iteration count, a capacity hint.
func (r *rig) observe(ring []sgx.Array, table, n int) ([]int64, error) {
	st := sgx.NewStepper(r.enc, ring, table)
	st.AttachObs(r.reg)
	st.OnTransition = r.injectNoise
	st.FaultProtect = r.cfg.Faults.Point("sgx.stepper.protect")
	st.FaultTransition = r.cfg.Faults.Point("sgx.stepper.transition")
	r.st = st
	tableVA := r.enc.Prog.MustSymbol(ring[table].Symbol).Addr

	offs := make([]int64, 0, n)
	var (
		ps     *pageState
		pageVA uint64
		vetErr error
	)
	prime := func(page uint64) {
		pageVA = page
		if ps, vetErr = r.pageFor(page); vetErr == nil {
			r.prime(ps)
		}
	}
	probe := func() {
		if vetErr != nil {
			return
		}
		off := recovery.UnknownObservation
		if line := r.probeLine(ps); line >= 0 {
			off = int64(pageVA+uint64(line*r.c.Config().LineSize)) - int64(tableVA)
		} else {
			r.unknownObs.Inc()
		}
		offs = append(offs, off)
		r.iterations.Inc()
		r.publish()
	}
	ok, err := st.Start()
	if err != nil {
		return nil, fmt.Errorf("zipchannel: start: %w", err)
	}
	for ok {
		done, err := st.Step(prime, probe)
		if vetErr != nil {
			return nil, fmt.Errorf("zipchannel: vetting: %w", vetErr)
		}
		if err != nil {
			return nil, fmt.Errorf("zipchannel: step: %w", err)
		}
		ok = !done
	}
	return offs, nil
}

// publish hands the cache's and the attacker's counts to the registry.
// The attacks call it once per stepper iteration, at the end of the
// probe callback, so a concurrent reader of the registry (-progress)
// lags by at most one iteration; their hot paths make no atomic adds.
func (r *rig) publish() {
	r.c.Publish()
	r.pp.Publish()
}

// finish publishes the last counts, copies the run's counters into res,
// publishes the recovery confidence as gauges, and closes the attack.run
// span. Call once, after recovery scored the result.
func (r *rig) finish(res *Result) {
	r.publish()
	res.SimSteps = r.enc.VM.Steps
	res.Iterations = int(r.iterations.Value())
	res.UnknownObs = int(r.unknownObs.Value())
	res.Remaps = int(r.remaps.Value())
	res.VettedPages = int(r.vettedPages.Value())
	res.CacheHits = r.c.Hits()
	res.CacheMisses = r.c.Misses()
	res.CacheEvictions = r.c.Evictions()
	res.CacheFlushes = r.c.Flushes()
	r.reg.Counter("attack.known_bytes").Add(uint64(res.KnownBytes))
	r.reg.Counter("attack.corrected_bytes").Add(uint64(res.CorrectedBytes))
	r.reg.Gauge("attack.byte_acc").Set(res.ByteAcc)
	r.reg.Gauge("attack.bit_acc").Set(res.BitAcc)
	r.reg.Emit("attack.result", map[string]any{
		"iterations":  res.Iterations,
		"unknown_obs": res.UnknownObs,
		"byte_acc":    res.ByteAcc,
		"bit_acc":     res.BitAcc,
	})
	r.c.EmitHeatmap()
	r.span.End()
}

// vetPage builds (and, with frame selection, searches for) the monitored
// eviction sets of one victim table page (§V-C2).
func (r *rig) vetPage(pageVA uint64) (*pageState, error) {
	lines := sgx.PageSize / r.c.Config().LineSize
	ps := &pageState{
		sets:  make([]int, 0, lines),
		evict: make([][]cache.Line, 0, lines),
		skip:  make([]bool, lines),
	}
	remaps := 0
	for {
		frame, ok := r.enc.FrameOf(pageVA)
		if !ok {
			return nil, fmt.Errorf("zipchannel: unmapped victim page %#x", pageVA)
		}
		ps.frame = frame
		ps.sets = ps.sets[:0]
		ps.evict = ps.evict[:0]
		for k := 0; k < lines; k++ {
			paddr := frame*sgx.PageSize + uint64(k*r.c.Config().LineSize)
			gs := r.c.GlobalSet(paddr)
			ps.sets = append(ps.sets, gs)
			ev, err := r.pp.EvictionSet(gs, r.monitorWays)
			if err != nil {
				return nil, err
			}
			ps.evict = append(ps.evict, ev)
		}
		if !r.cfg.UseFrameSelection {
			return ps, nil
		}
		// Dry-run: prime, replay the transition noise, probe (§V-C2).
		for _, ev := range ps.evict {
			r.pp.Prime(ev)
		}
		r.st.DryTransition()
		r.injectNoise() // a fault delivery's worth of kernel traffic
		noisy := r.noisy
		clear(noisy)
		for k, ev := range ps.evict {
			if r.pp.Probe(ev) > 0 {
				noisy[ps.sets[k]] = true
			}
		}
		if len(noisy) == 0 {
			r.framesAccepted.Inc()
			return ps, nil
		}
		r.framesRejected.Inc()
		if remaps >= r.cfg.MaxRemapsPerPage || r.enc.FramesRemaining() == 0 {
			// Give up searching: log the noisy sets as known false
			// positives (the paper's timeout path).
			r.vetTimeouts.Inc()
			ps.exclude(noisy)
			return ps, nil
		}
		if _, err := r.enc.RemapPage(pageVA); err != nil {
			r.vetTimeouts.Inc()
			ps.exclude(noisy)
			return ps, nil
		}
		remaps++
		r.remaps.Inc()
		if r.reg.Tracing() {
			r.reg.Emit("attack.remap", map[string]any{"page": pageVA, "noisy_sets": len(noisy)})
		}
	}
}

// pageFor returns (vetting on first use) the state for a victim page.
func (r *rig) pageFor(pageVA uint64) (*pageState, error) {
	if ps, ok := r.pages[pageVA]; ok {
		return ps, nil
	}
	ps, err := r.vetPage(pageVA)
	if err != nil {
		return nil, err
	}
	r.pages[pageVA] = ps
	r.vettedPages.Inc()
	return ps, nil
}

// prime fills the monitored sets of a vetted page.
func (r *rig) prime(ps *pageState) {
	for k, ev := range ps.evict {
		if !ps.skip[k] {
			r.pp.Prime(ev)
		}
	}
}

// probeLine measures the page's sets and returns the index (0-63) of the
// single hot line, or -1 when zero or multiple sets fired (an unknown
// observation).
func (r *rig) probeLine(ps *pageState) int {
	hot := -1
	count := 0
	for k, ev := range ps.evict {
		if ps.skip[k] {
			continue
		}
		if r.pp.Probe(ev) > 0 {
			hot = k
			count++
		}
	}
	if count != 1 {
		return -1
	}
	return hot
}
