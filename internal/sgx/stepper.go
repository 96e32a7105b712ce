package sgx

import (
	"errors"
	"fmt"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/isa"
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

// Array is one array of a stepped gadget loop, named by its data symbol.
// Store says the loop only stores to it: revoked, the array keeps read
// permission so that only the store faults. An array the loop loads from
// keeps no permission, so its first access — the load — faults.
type Array struct {
	Symbol string
	Store  bool
}

// revoked is the permission the array keeps while revoked.
func (a Array) revoked() vm.Perm {
	if a.Store {
		return vm.PermRead
	}
	return 0
}

// Stepper drives the controlled-channel state machine of Fig 5 over a
// gadget loop: a table indexed by a secret-derived value plus the other
// arrays the loop touches, each accessed by exactly one line of the loop.
// Listed in loop order they form a ring, and revoking one array at a time
// around it single-steps the enclave one loop iteration per turn while
// exposing the page of each table access. The paper's bzip2 ring is
// quadrant (store), block (load), ftab (store, the table); the same
// machine steps zlib's head (store, the table), window (load) and
// ncompress's htab (load, the table), inputbuf (load), the gadgets §IV-E
// surveys.
type Stepper struct {
	e     *Enclave
	ring  []Array
	table int // index of the table in ring
	// syms holds each ring array's data symbol, looked up once by
	// NewStepper; a symbol the program lacks is the zero Symbol.
	syms []isa.Symbol

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
	page    uint64 // page base of the last fault, the table's when stopped there
	obs     stepperObs
	reg     *obs.Registry // backs lazily-registered fault-path counters
}

// NewStepper builds a stepper over ring, the gadget loop's arrays in loop
// order, of which ring[table] is the table.
func NewStepper(e *Enclave, ring []Array, table int) *Stepper {
	syms := make([]isa.Symbol, len(ring))
	for k, a := range ring {
		syms[k], _ = e.symbol(a.Symbol) // a missing one fails at its first flip
	}
	return &Stepper{e: e, ring: ring, table: table, syms: syms}
}

func (s *Stepper) transition() {
	s.obs.transitions.Inc()
	if s.OnTransition != nil {
		s.OnTransition()
	}
	if in := s.FaultTransition.Hit(); in.Kind == fault.KindLatency {
		if s.reg != nil {
			s.reg.Counter(s.obs.prefix + ".noise_storms").Inc()
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

// protect flips ring[k]'s permissions, absorbing injected failures: a
// fault-injected Protect error is retried (the flip is idempotent), and
// the failed syscall still costs a transition's worth of kernel cache
// noise, so the injected failure measurably perturbs the attack window.
func (s *Stepper) protect(k int, perm vm.Perm) error {
	for attempt := 0; ; attempt++ {
		if err := s.FaultProtect.Err(); err != nil {
			if attempt < protectRetries {
				if s.reg != nil {
					s.reg.Counter(s.obs.prefix + ".protect_retries").Inc()
				}
				s.transition()
				continue
			}
			return fmt.Errorf("sgx: protect %s: %w", s.ring[k].Symbol, err)
		}
		if s.syms[k].Name == "" {
			_, err := s.e.symbol(s.ring[k].Symbol)
			return err
		}
		return s.e.protect(s.syms[k], perm)
	}
}

// arrive checks that the enclave stopped at ring[k]'s access and records
// the faulting page.
func (s *Stepper) arrive(k int, f MaskedFault) error {
	if a := s.ring[k]; f.Write != a.Store {
		return fmt.Errorf("%w: expected a fault on %s (store %v), got %+v", ErrProtocol, a.Symbol, a.Store, f)
	}
	s.page = f.PageBase
	return nil
}

// Start revokes ring[0] and lets the enclave run its set-up (input read,
// table clearing) up to the first ring[0] access. Returns false if the
// enclave halted before reaching the loop (input too short).
func (s *Stepper) Start() (bool, error) {
	if err := s.protect(0, s.ring[0].revoked()); err != nil {
		return false, err
	}
	s.transition()
	f, faulted, err := s.e.Resume()
	if err != nil || !faulted {
		return false, err // !faulted: halted before the loop
	}
	if err := s.arrive(0, f); err != nil {
		return false, err
	}
	s.started = true
	s.obs.starts.Inc()
	return true, nil
}

// Step advances one loop iteration by going once around the ring. At
// each array it restores that array, revokes the next one and resumes,
// so exactly the one access of the current array executes before the
// next array's access faults. While the enclave is stopped at the table
// access it calls prime(tablePage) (the attacker fills the monitored
// sets); after the resume that lets the table access run it calls
// probe() (the attacker measures). That resume's own kernel footprint
// still pollutes the cache (the attacker "simply logs any noisy cache
// lines ... and will treat them as false positives", §V-C2), which is
// what frame selection compensates for.
//
// Every fault must be the next array's declared access. A halt before
// the iteration's table access is ErrProtocol; a halt after it returns
// done=true (the last iteration completed).
func (s *Stepper) Step(prime func(tablePage uint64), probe func()) (done bool, err error) {
	if !s.started {
		return false, fmt.Errorf("%w: Step before Start", ErrProtocol)
	}
	for i := range s.ring {
		if i == s.table && prime != nil {
			prime(s.page)
		}
		next := (i + 1) % len(s.ring)
		if err := s.protect(i, vm.PermRW); err != nil {
			return false, err
		}
		if err := s.protect(next, s.ring[next].revoked()); err != nil {
			return false, err
		}
		s.transition()
		f, faulted, err := s.e.Resume()
		if err != nil {
			return false, err
		}
		s.obs.hop(i)
		if i == s.table {
			if probe != nil {
				probe()
			}
			s.obs.iterations.Inc()
		}
		if !faulted {
			if i < s.table {
				return false, fmt.Errorf("%w: halted before the %s access", ErrProtocol, s.ring[s.table].Symbol)
			}
			return true, nil // enclave halted: that was the last iteration
		}
		if err := s.arrive(next, f); err != nil {
			return false, err
		}
	}
	return false, nil
}

// DryTransition repeats one permission flip's transition traffic without
// letting the victim run, so the attacker can observe which monitored
// sets the transition noise itself pollutes (§V-C2's frame-selection
// probe).
func (s *Stepper) DryTransition() {
	s.transition()
}
