package vm

import (
	"github.com/zipchannel/zipchannel/internal/isa"
	"github.com/zipchannel/zipchannel/internal/obs"
)

// vmObs holds the VM's pre-resolved instruments. Counters are nil until
// AttachObs runs; obs instrument methods are no-ops on nil, so the hot
// path needs no conditionals. The per-step counters (instructions, opcode
// dispatch) are private CounterShard slots rather than the shared
// counters, so VMs running in parallel tasks do not bounce one cache line
// per retired instruction.
type vmObs struct {
	instructions *obs.CounterShard
	faults       *obs.Counter
	sysRead      *obs.Counter
	sysWrite     *obs.Counter
	sysExit      *obs.Counter
	ops          [isa.NumOps]*obs.CounterShard
}

// AttachObs registers the VM's telemetry on reg: vm.instructions (retired),
// vm.faults, vm.sys.{read,write,exit}, and a per-opcode dispatch counter
// vm.op.<mnemonic>. Instruments are resolved once here so Step pays a
// single uncontended atomic add per event. A nil registry detaches cleanly.
func (v *VM) AttachObs(reg *obs.Registry) {
	v.obs.instructions = reg.Counter("vm.instructions").Shard()
	v.obs.faults = reg.Counter("vm.faults")
	v.obs.sysRead = reg.Counter("vm.sys.read")
	v.obs.sysWrite = reg.Counter("vm.sys.write")
	v.obs.sysExit = reg.Counter("vm.sys.exit")
	for op := 0; op < isa.NumOps; op++ {
		v.obs.ops[op] = reg.Counter("vm.op." + isa.Op(op).String()).Shard()
	}
}
