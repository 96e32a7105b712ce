// Package zipchannel implements the paper's first end-to-end attack (§V):
// extracting the data Bzip2 compresses inside an SGX enclave by combining
//
//   - mprotect-based single-stepping over the ftab histogram gadget
//     (Fig 5's controlled-channel state machine),
//   - the masked page-fault address for the accessed virtual page (§V-B),
//   - Prime+Probe over the 64 line-sets of that page for the page offset
//     (§V-C), with
//   - Intel CAT partitioning to shut out other-core noise (§V-C1), and
//   - frame selection to dodge the kernel's fixed fault-handling cache
//     footprint (§V-C2),
//
// and finally inverting the observed line trace into plaintext (§V-D,
// implemented in the recovery package).
package zipchannel

import (
	"fmt"
	"sync"
	"time"

	"github.com/zipchannel/zipchannel/internal/cache"
	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/isa"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/recovery"
	"github.com/zipchannel/zipchannel/internal/sgx"
	"github.com/zipchannel/zipchannel/internal/victims"
)

// Actor ids on the shared cache.
const (
	actorVictim   = 1
	actorAttacker = 2
	actorKernel   = 3 // fault/mprotect handling on the attack core
	actorOther    = 4 // unrelated applications on other cores
)

// CAT classes of service.
const (
	cosAttack = 1 // victim + attacker + kernel: the attack core
	cosOther  = 2 // everything else
)

// Config tunes the attack and its ablations.
type Config struct {
	Cache cache.Config

	// UseCAT isolates the attack core's ways from other-application noise
	// (§V-C1). Disabling it is ablation E7a-1.
	UseCAT bool
	// UseFrameSelection vets/remaps ftab frames onto quiet cache sets
	// (§V-C2). Disabling it is ablation E7a-2.
	UseFrameSelection bool
	// MaxRemapsPerPage bounds the frame search (default 16).
	MaxRemapsPerPage int

	// KernelNoiseLines is how many fixed kernel lines each fault or
	// mprotect touches (default 32; 0 disables).
	KernelNoiseLines int
	// OtherNoiseRate is the expected number of other-application accesses
	// per transition (0 disables).
	OtherNoiseRate float64

	// FtabPad offsets ftab from cache-line alignment (default 20, the
	// paper's misaligned reality; 64 yields the aligned variant).
	FtabPad int

	// Oblivious attacks the §VIII mitigation variant of the victim (one
	// write per ftab cache line per input byte) instead of the vulnerable
	// gadget: experiment E11.
	Oblivious bool

	// Frames is the physical frame pool size (default 32768 = 128 MiB,
	// the paper's EPC bound).
	Frames uint64

	Seed int64

	// Obs receives the full attack telemetry (cache, VM, enclave,
	// stepper, Prime+Probe, and attack.* counters). The registry's sim
	// clock is wired to the victim VM's retired-instruction count. When
	// nil the attack keeps a private registry, so Result counters still
	// fill in.
	Obs *obs.Registry `json:"-"`

	// Faults is the chaos-run injection registry. The attack consults
	// attacker.pp.timer (latency kind: jittered timer readings, filtered
	// by the attacker's median-of-TimerSamples classifier),
	// sgx.stepper.protect (error kind: failed permission flips, retried
	// with extra kernel noise), and sgx.stepper.transition (latency kind:
	// injected noise storms in the measurement window). Nil — the default
	// — leaves every measurement path byte-identical to a fault-free
	// build. Excluded from manifests: arming faults is a property of a
	// chaos run, not of the attack configuration it perturbs.
	Faults *fault.Registry `json:"-"`
	// TimerSamples is the attacker's per-line timer-reading count for
	// median filtering (default attacker.DefaultTimerSamples; consulted
	// only when Faults arms attacker.pp.timer).
	TimerSamples int `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.MaxRemapsPerPage == 0 {
		c.MaxRemapsPerPage = 16
	}
	if c.FtabPad == 0 {
		c.FtabPad = 20
	}
	if c.Frames == 0 {
		c.Frames = 32768
	}
	return c
}

// DefaultConfig is the paper's full-strength configuration.
func DefaultConfig() Config {
	return Config{
		UseCAT:            true,
		UseFrameSelection: true,
		KernelNoiseLines:  32,
		OtherNoiseRate:    4,
		FtabPad:           20,
		Cache:             cache.Config{},
	}
}

// Result reports one attack run.
type Result struct {
	Recovered []byte
	ByteAcc   float64
	BitAcc    float64

	Iterations  int
	UnknownObs  int // iterations with zero or ambiguous hot sets
	Remaps      int // frame-selection remappings performed
	VettedPages int
	// KnownBytes and CorrectedBytes report recovery confidence: bytes
	// pinned to one candidate, and the subset only the cross-iteration
	// redundancy (§V-D) resolved. Filled by the bzip2 attacks.
	KnownBytes     int
	CorrectedBytes int
	// SimSteps is the victim's retired-instruction count — the attack's
	// deterministic duration. Elapsed is the wall clock, excluded from
	// String so that fixed-seed output stays byte-identical across runs
	// and parallelism levels.
	SimSteps uint64
	Elapsed  time.Duration

	CacheHits      uint64
	CacheMisses    uint64
	CacheEvictions uint64
	CacheFlushes   uint64
}

// CacheAccesses returns hits+misses.
func (r *Result) CacheAccesses() uint64 { return r.CacheHits + r.CacheMisses }

func (r *Result) String() string {
	return fmt.Sprintf("recovered %d bytes: %.2f%% bytes, %.3f%% bits correct (%d/%d iterations unknown, %d remaps, %d sim steps)",
		len(r.Recovered), 100*r.ByteAcc, 100*r.BitAcc, r.UnknownObs, r.Iterations, r.Remaps, r.SimSteps)
}

// pageState is the attacker's bookkeeping for one vetted ftab page.
type pageState struct {
	frame uint64
	sets  []int      // global set per line index 0..63
	evict [][]uint64 // eviction set per line index
	skip  []bool     // per line index: its set is known-noisy, a false positive
}

// exclude marks the lines whose sets are in noisy as skipped.
func (ps *pageState) exclude(noisy map[int]bool) {
	for k, gs := range ps.sets {
		ps.skip[k] = noisy[gs]
	}
}

// victimKey names one victim program: its gadget and ftab padding.
type victimKey struct {
	gadget  string
	ftabPad int
}

// victimPrograms holds the attacks' victim programs, assembled once each.
var victimPrograms sync.Map // victimKey -> *isa.Program

// victimProgram returns the program for key, assembling it with build on
// first use. A program is immutable once assembled, and the VM memoizes
// each program's decoding by identity for the life of the process, so a
// program assembled per attack would grow that memo with every attack.
func victimProgram(key victimKey, build func() *isa.Program) *isa.Program {
	if p, ok := victimPrograms.Load(key); ok {
		return p.(*isa.Program)
	}
	p, _ := victimPrograms.LoadOrStore(key, build())
	return p.(*isa.Program)
}

// Attack runs the end-to-end extraction of input while the enclave
// compresses it, and scores the recovery against the ground truth.
func Attack(input []byte, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	start := time.Now()

	vopts := victims.BzipFtabOptions{FtabPad: cfg.FtabPad}
	prog := victimProgram(victimKey{"bzip2", cfg.FtabPad}, func() *isa.Program { return victims.BzipFtab(vopts) })
	if cfg.Oblivious {
		prog = victimProgram(victimKey{"bzip2-oblivious", cfg.FtabPad},
			func() *isa.Program { return victims.BzipFtabOblivious(vopts) })
	}
	r, err := newRig(prog, input, cfg)
	if err != nil {
		return nil, err
	}

	st := sgx.NewStepper(r.enc, "quadrant", "block", "ftab")
	st.AttachObs(r.reg)
	st.OnTransition = r.injectNoise
	st.FaultProtect = cfg.Faults.Point("sgx.stepper.protect")
	st.FaultTransition = cfg.Faults.Point("sgx.stepper.transition")
	r.dryTransition = st.DryTransition

	ftab := prog.MustSymbol("ftab")
	ok, err := st.Start()
	if err != nil {
		return nil, fmt.Errorf("zipchannel: start: %w", err)
	}

	trace := make(recovery.BzipTrace, 0, len(input)) // one observation per input byte
	for ok {
		var (
			ps      *pageState
			pageVA  uint64
			stepErr error
		)
		done, err := st.Step(
			func(page uint64) {
				pageVA = page
				if ps, stepErr = r.pageFor(page); stepErr != nil {
					return
				}
				r.prime(ps)
			},
			func() {
				if ps == nil {
					return
				}
				if line := r.probeLine(ps); line >= 0 {
					lineVA := pageVA + uint64(line*r.c.Config().LineSize)
					trace = append(trace, int64(lineVA)-int64(ftab.Addr))
				} else {
					trace = append(trace, recovery.UnknownObservation)
					r.unknownObs.Inc()
				}
				r.iterations.Inc()
				r.publish()
			},
		)
		if stepErr != nil {
			return nil, fmt.Errorf("zipchannel: vetting: %w", stepErr)
		}
		if err != nil {
			return nil, fmt.Errorf("zipchannel: step: %w", err)
		}
		if done {
			break
		}
	}

	rec, err := recovery.RecoverBzip(trace, len(input), r.c.Config().LineSize)
	if err != nil {
		return nil, fmt.Errorf("zipchannel: recovery: %w", err)
	}
	res := r.res
	res.Recovered = rec.Block
	res.ByteAcc, res.BitAcc = rec.Accuracy(input)
	res.KnownBytes = rec.KnownCount()
	res.CorrectedBytes = rec.Corrected
	res.Elapsed = time.Since(start)
	r.finish(res)
	return res, nil
}
