package sgx

import (
	"errors"
	"fmt"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/vm"
)

// protectRetries bounds how many times a fault-injected Protect failure is
// retried. Protect only writes page permissions, so retrying is always
// safe; each retry replays one transition's worth of kernel noise — the
// cache footprint a real retried mprotect syscall would leave behind.
const protectRetries = 3

// ErrProtocol reports that the victim faulted somewhere the Fig 5 state
// machine does not expect (e.g. a different gadget layout).
var ErrProtocol = errors.New("sgx: single-step protocol violation")

// Stepper drives the controlled-channel state machine of Fig 5 over the
// bzip2 histogram gadget: by rotating revoked permissions across the
// quadrant, block, and ftab arrays — each accessed by exactly one line of
// the loop — it single-steps the enclave one loop iteration at a time and
// exposes the page of each ftab access.
type Stepper struct {
	e                     *Enclave
	quadrant, block, ftab string

	// OnTransition, if set, runs at every permission flip + resume: the
	// hook where the simulation injects the OS/SGX transition noise that
	// motivates frame selection (§V-C2).
	OnTransition func()

	// FaultProtect (error kind: sgx.stepper.protect) fails permission
	// flips, which the stepper retries up to protectRetries times;
	// FaultTransition (latency kind: sgx.stepper.transition) injects noise
	// storms — Param extra rounds of OnTransition noise in the attack
	// window, an interrupt burst landing mid-measurement. Nil or disarmed
	// points leave the protocol byte-identical to a fault-free build.
	FaultProtect    *fault.Point
	FaultTransition *fault.Point

	started bool
	obs     stepperObs
	reg     *obs.Registry // backs lazily-registered fault-path counters
}

// NewStepper builds a stepper for the three gadget arrays.
func NewStepper(e *Enclave, quadrant, block, ftab string) *Stepper {
	return &Stepper{e: e, quadrant: quadrant, block: block, ftab: ftab}
}

func (s *Stepper) transition() {
	s.obs.transitions.Inc()
	if s.OnTransition != nil {
		s.OnTransition()
	}
	if in := s.FaultTransition.Hit(); in.Kind == fault.KindLatency {
		if s.reg != nil {
			s.reg.Counter("sgx.step.noise_storms").Inc()
		}
		n := int(in.Param)
		if n <= 0 {
			n = 1
		}
		for i := 0; i < n && s.OnTransition != nil; i++ {
			s.OnTransition()
		}
	}
}

// protect flips one array's permissions, absorbing injected failures: a
// fault-injected Protect error is retried (the flip is idempotent), and
// the failed syscall still costs a transition's worth of kernel cache
// noise, so the injected failure measurably perturbs the attack window.
func (s *Stepper) protect(symbol string, perm vm.Perm) error {
	for attempt := 0; ; attempt++ {
		if err := s.FaultProtect.Err(); err != nil {
			if attempt < protectRetries {
				if s.reg != nil {
					s.reg.Counter("sgx.step.protect_retries").Inc()
				}
				s.transition()
				continue
			}
			return fmt.Errorf("sgx: protect %s: %w", symbol, err)
		}
		return s.e.Protect(symbol, perm)
	}
}

// Start lets the enclave run its input read and ftab clearing, then stops
// it at the first quadrant store (state S0). Returns false if the enclave
// halted before reaching the loop (empty input).
func (s *Stepper) Start() (bool, error) {
	if err := s.protect(s.quadrant, vm.PermRead); err != nil {
		return false, err
	}
	s.transition()
	f, faulted, err := s.e.Resume()
	if err != nil {
		return false, err
	}
	if !faulted {
		return false, nil // halted: input too short to enter the loop
	}
	if !f.Write {
		return false, fmt.Errorf("%w: expected quadrant write fault, got read fault at %#x", ErrProtocol, f.PageBase)
	}
	s.started = true
	s.obs.starts.Inc()
	return true, nil
}

// Step advances one loop iteration. It:
//
//  1. S0->S1: restores quadrant, revokes block; the quadrant store runs,
//     the block load faults.
//  2. S1->S2: restores block, revokes ftab writes; the block load runs,
//     the ftab store faults — its masked address gives the accessed page.
//  3. calls prime(ftabPageBase): the attacker fills the monitored sets.
//  4. S2->S3->S4: restores ftab, revokes quadrant; exactly one victim
//     memory access (the ftab increment) executes before the next
//     iteration's quadrant store faults (or the loop exits and the
//     enclave halts).
//  5. calls probe(): the attacker measures.
//
// Returns done=true when the enclave halted (last iteration completed).
func (s *Stepper) Step(prime func(ftabPage uint64), probe func()) (done bool, err error) {
	if !s.started {
		return false, fmt.Errorf("%w: Step before Start", ErrProtocol)
	}
	// S0 -> S1.
	if err := s.protect(s.quadrant, vm.PermRW); err != nil {
		return false, err
	}
	if err := s.protect(s.block, 0); err != nil {
		return false, err
	}
	s.transition()
	f, faulted, err := s.e.Resume()
	if err != nil {
		return false, err
	}
	if !faulted || f.Write {
		return false, fmt.Errorf("%w: expected block read fault, got %s", ErrProtocol, exitString(f, faulted))
	}
	s.obs.s0s1.Inc()

	// S1 -> S2.
	if err := s.protect(s.block, vm.PermRW); err != nil {
		return false, err
	}
	if err := s.protect(s.ftab, vm.PermRead); err != nil {
		return false, err
	}
	s.transition()
	f, faulted, err = s.e.Resume()
	if err != nil {
		return false, err
	}
	if !faulted || !f.Write {
		return false, fmt.Errorf("%w: expected ftab write fault, got %s", ErrProtocol, exitString(f, faulted))
	}
	s.obs.s1s2.Inc()
	ftabPage := f.PageBase

	if prime != nil {
		prime(ftabPage)
	}

	// S2 -> S3 -> S4: the single ftab access executes. This transition's
	// own kernel footprint still pollutes the cache (the attacker "simply
	// logs any noisy cache lines ... and will treat them as false
	// positives", §V-C2), which is what frame selection compensates for.
	if err := s.protect(s.ftab, vm.PermRW); err != nil {
		return false, err
	}
	if err := s.protect(s.quadrant, vm.PermRead); err != nil {
		return false, err
	}
	s.transition()
	f, faulted, err = s.e.Resume()
	if err != nil {
		return false, err
	}

	s.obs.s2s4.Inc()
	if probe != nil {
		probe()
	}
	s.obs.iterations.Inc()

	if !faulted {
		return true, nil // enclave halted: that was the last iteration
	}
	if !f.Write {
		return false, fmt.Errorf("%w: expected quadrant write fault, got read fault", ErrProtocol)
	}
	return false, nil
}

// DryTransition repeats the S2 permission traffic without letting the
// victim touch ftab, so the attacker can observe which monitored sets the
// transition noise itself pollutes (§V-C2's frame-selection probe).
func (s *Stepper) DryTransition() {
	s.transition()
}

// exitString describes an enclave exit for a protocol error.
func exitString(f MaskedFault, faulted bool) string {
	if !faulted {
		return "halt"
	}
	return fmt.Sprintf("%+v", f)
}
