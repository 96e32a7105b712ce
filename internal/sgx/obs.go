package sgx

import "github.com/zipchannel/zipchannel/internal/obs"

// enclaveObs holds the enclave's pre-resolved instruments (nil until
// AttachObs; obs methods no-op on nil).
type enclaveObs struct {
	faults    *obs.Counter
	mprotects *obs.Counter
	remaps    *obs.Counter
	faultPage *obs.Histogram
}

// AttachObs registers enclave telemetry on reg: sgx.faults (deliveries),
// sgx.mprotect (permission flips), sgx.remaps (frame moves), and the
// sgx.fault_page histogram of faulting page indexes relative to the data
// base.
func (e *Enclave) AttachObs(reg *obs.Registry) {
	e.obs.faults = reg.Counter("sgx.faults")
	e.obs.mprotects = reg.Counter("sgx.mprotect")
	e.obs.remaps = reg.Counter("sgx.remaps")
	e.obs.faultPage = reg.Histogram("sgx.fault_page")
}

// stepperObs is the stepper's pre-resolved instruments. prefix is
// sgx.step for Fig 5's three-array ring and sgx.step2 for the two-array
// rings of §IV-E.
type stepperObs struct {
	prefix      string
	starts      *obs.Counter
	transitions *obs.Counter
	iterations  *obs.Counter
	// hops counts Fig 5's edges S0->S1, S1->S2 and S2->S4, one per array
	// of the three-array ring. A two-array ring's hops have no Fig 5
	// names, so they stay nil and count nothing.
	hops [3]*obs.Counter
}

// hop counts the resume of ring[i] (a no-op without instruments).
func (o *stepperObs) hop(i int) {
	if i < len(o.hops) {
		o.hops[i].Inc()
	}
}

// AttachObs registers the stepper's telemetry on reg under sgx.step (a
// three-array ring) or sgx.step2 (a two-array ring): starts, completed
// iterations, raw permission-flip transitions, and for the three-array
// ring Fig 5's per-edge transition counts (s0_s1, s1_s2, s2_s4).
func (s *Stepper) AttachObs(reg *obs.Registry) {
	p := "sgx.step"
	if len(s.ring) == 2 {
		p = "sgx.step2"
	}
	s.obs = stepperObs{
		prefix:      p,
		starts:      reg.Counter(p + ".starts"),
		transitions: reg.Counter(p + ".transitions"),
		iterations:  reg.Counter(p + ".iterations"),
	}
	if len(s.ring) == len(s.obs.hops) {
		s.obs.hops = [3]*obs.Counter{reg.Counter(p + ".s0_s1"), reg.Counter(p + ".s1_s2"), reg.Counter(p + ".s2_s4")}
	}
	// reg also backs the fault-path counters (<prefix>.protect_retries,
	// <prefix>.noise_storms), registered lazily on first injection so
	// fault-free runs keep their snapshots unchanged.
	s.reg = reg
}
