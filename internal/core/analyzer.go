// Package core implements TaintChannel, the paper's tool for automatically
// detecting cache side-channel vulnerabilities (§III). It attaches to a vm
// execution as an instrumentation client (the DynamoRIO role), marks every
// byte returned by the read syscall with a sequential taint tag, propagates
// taint bit-granularly through direct data manipulation only (Fig 1's
// decision tree: no control-flow taint), and reports
//
//   - data-flow gadgets: memory dereferences whose address is tainted, and
//   - control-flow gadgets: conditional branches whose flags derive from
//     tainted data,
//
// together with the exact per-bit relation between input bytes and the
// dereferenced address (the ASCII matrices of Figs 2-4).
//
// The propagation hot path is allocation-free in steady state: taint words
// are manipulated through the in-place pointer-receiver API of
// internal/taint (hash-consed sets named by uint32 IDs, memoized unions),
// and the analyzer reuses a small number of scratch words instead of
// passing 264-byte shadows by value. Register and memory shadows hold set
// IDs, never pointers, so the GC does not scan them.
package core

import (
	"math/bits"

	"github.com/zipchannel/zipchannel/internal/isa"
	"github.com/zipchannel/zipchannel/internal/taint"
	"github.com/zipchannel/zipchannel/internal/vm"
)

// Config tunes the analyzer.
type Config struct {
	// CarryAware selects the sound carry-propagating rule for add/sub/neg
	// instead of the paper-faithful per-bit rule (DESIGN.md §2).
	CarryAware bool
	// MaxSamplesPerGadget bounds how many concrete access samples are
	// retained per gadget site (default 4).
	MaxSamplesPerGadget int
	// TrackTags selects input-byte tags whose full propagation history is
	// recorded (Fig 3), at most maxHistoryPerTag events each. Nil tracks
	// none.
	TrackTags map[taint.Tag]bool
	// ReducedTrace records the sequence of taint-touching instructions,
	// the input to cross-input control-flow diffing (§VI), at most
	// maxReducedTrace of them. Default off.
	ReducedTrace bool
}

const (
	maxHistoryPerTag = 64      // bounds each tracked tag's history
	maxReducedTrace  = 1 << 20 // bounds the reduced trace length
)

func (c Config) withDefaults() Config {
	if c.MaxSamplesPerGadget == 0 {
		c.MaxSamplesPerGadget = 4
	}
	return c
}

// GadgetKind classifies a finding.
type GadgetKind uint8

// Gadget kinds.
const (
	// DataFlow is a memory dereference with a tainted address (§IV).
	DataFlow GadgetKind = iota
	// ControlFlow is a conditional branch on tainted flags (§VI).
	ControlFlow
)

// String names the kind.
func (k GadgetKind) String() string {
	if k == DataFlow {
		return "data-flow"
	}
	return "control-flow"
}

// AccessSample is one concrete triggering of a gadget.
type AccessSample struct {
	Step      uint64
	Addr      uint64     // effective address (data-flow) or flag-setter pc (control-flow)
	AddrTaint taint.Word // per-bit taint of the address / compared value
	Taken     bool       // control-flow only: branch outcome
}

// Finding is one leakage gadget: a static instruction that performed at
// least one taint-dependent access or branch.
type Finding struct {
	Kind    GadgetKind
	PC      int
	Instr   isa.Instr
	Count   int
	Samples []AccessSample
}

// HistEvent is one step in a tracked tag's propagation history (Fig 3).
type HistEvent struct {
	Step  uint64
	PC    int
	Instr string
	Note  string
}

// ReducedEvent is one entry of the reduced (taint-touching-only) trace.
type ReducedEvent struct {
	PC    int
	Op    isa.Op
	Taken bool // meaningful for branches
}

// Analyzer is a TaintChannel instance attached to one execution.
type Analyzer struct {
	cfg Config

	regs   [isa.NumRegs]taint.Word
	shadow shadowMem
	// flagSrc latches the shadow word(s) the last flag setter (flagPC)
	// derived the flags from: cmp/test's two truncated operands, or an
	// ALU op's result in flagSrc[0] with flagSrc[1] clean. The flag taint
	// is the union of all their tags; steady-state readers only test its
	// emptiness (flagsTainted), and recordBranch builds the set only for
	// a retained sample.
	flagSrc [2]taint.Word
	flagPC  int

	// transfers is the per-block taint transfer table of the attached
	// program (blocktaint.go), indexed like vm.Blocks. lastSkip is the
	// block ID whose skip verdict is still warm (see enterBlock), -1 if
	// none; any precise step or read syscall invalidates it.
	transfers *blockTable
	lastSkip  int

	// order lists the findings in discovery order; byPC indexes them by
	// kind and pc, one slot per instruction of the attached program.
	order   []*Finding
	byPC    [2][]*Finding
	history map[taint.Tag][]HistEvent
	reduced []ReducedEvent

	instrCount uint64
	taintOps   uint64

	// Scratch shadows reused across steps so propagation never passes
	// 264-byte words by value.
	tmpSrc  taint.Word
	tmpDst  taint.Word
	tmpAddr taint.Word
	tmpIdx  taint.Word
}

// New creates an analyzer.
func New(cfg Config) *Analyzer {
	return &Analyzer{
		cfg:      cfg.withDefaults(),
		history:  map[taint.Tag][]HistEvent{},
		lastSkip: -1,
	}
}

// Attach installs the analyzer's hooks on the machine. Existing hooks are
// replaced; TaintChannel assumes it is the only instrumentation client.
// Besides the per-instruction hooks it installs the block-level OnBlock
// handler (blocktaint.go) that lets the compiled engine run provably
// taint-free blocks uninstrumented, sizes the findings index to the
// program and the flat shadow memory to the machine's memory range.
func (a *Analyzer) Attach(v *vm.VM) {
	v.Hooks.BeforeInstr = a.step
	v.Hooks.OnSyscallRead = a.onRead
	a.transfers = transfersFor(v.Prog)
	if n := len(v.Prog.Instrs); len(a.byPC[0]) < n {
		for k := range a.byPC {
			a.byPC[k] = append(a.byPC[k], make([]*Finding, n-len(a.byPC[k]))...)
		}
	}
	v.Hooks.OnBlock = a.enterBlock
	type sizedMem interface {
		Base() uint64
		Size() uint64
	}
	if m, ok := v.Mem.(sizedMem); ok {
		a.shadow.bound(m.Base(), m.Base()+m.Size())
	}
}

// InstrCount returns how many instructions the analyzer observed.
func (a *Analyzer) InstrCount() uint64 { return a.instrCount }

// TaintOps returns how many observed instructions touched tainted state.
func (a *Analyzer) TaintOps() uint64 { return a.taintOps }

// Reduced returns the reduced trace (only if Config.ReducedTrace).
func (a *Analyzer) Reduced() []ReducedEvent { return a.reduced }

// History returns the recorded propagation history for a tracked tag.
func (a *Analyzer) History(t taint.Tag) []HistEvent { return a.history[t] }

// onRead taints freshly read input bytes with sequential tags, the taint
// source of the whole analysis.
func (a *Analyzer) onRead(_ *vm.VM, bufAddr uint64, n, firstIndex int) {
	a.lastSkip = -1
	for i := 0; i < n; i++ {
		tag := taint.Tag(firstIndex + i)
		a.tmpSrc.SetByte(tag)
		a.shadow.store(bufAddr+uint64(i), 1, &a.tmpSrc)
		if a.cfg.TrackTags[tag] {
			a.recordHistory(tag, 0, -1, "read syscall", "byte enters memory")
		}
	}
}

// step performs taint propagation for one instruction; it runs before the
// instruction executes, so register values are pre-state.
func (a *Analyzer) step(v *vm.VM, in *isa.Instr) {
	a.instrCount++
	a.lastSkip = -1 // precise execution may change shadow state
	w := int(in.Width)
	touched := false

	switch in.Op {
	case isa.OpMov:
		a.operandShadow(&a.tmpSrc, in.Src, w)
		touched = !a.tmpSrc.IsClean() || !a.regs[in.Dst.Reg].IsClean()
		a.setReg(v, in, in.Dst.Reg, &a.tmpSrc)

	case isa.OpLea:
		a.addrShadow(&a.tmpAddr, in.Src.Mem)
		touched = !a.tmpAddr.IsClean() || !a.regs[in.Dst.Reg].IsClean()
		a.setReg(v, in, in.Dst.Reg, &a.tmpAddr)

	case isa.OpLd:
		addrT := a.addrTainted(in.Src.Mem)
		if addrT {
			a.recordGadget(v, in, DataFlow, v.EffectiveAddr(in.Src.Mem), in.Src.Mem)
		}
		a.shadow.load(&a.tmpSrc, v.EffectiveAddr(in.Src.Mem), w)
		touched = !a.tmpSrc.IsClean() || addrT || !a.regs[in.Dst.Reg].IsClean()
		a.setReg(v, in, in.Dst.Reg, &a.tmpSrc)

	case isa.OpSt:
		addrT := a.addrTainted(in.Dst.Mem)
		if addrT {
			a.recordGadget(v, in, DataFlow, v.EffectiveAddr(in.Dst.Mem), in.Dst.Mem)
		}
		a.operandShadow(&a.tmpSrc, in.Src, w)
		touched = !a.tmpSrc.IsClean() || addrT
		a.tmpSrc.TruncateIn(w)
		a.storeShadowTracked(v, in, v.EffectiveAddr(in.Dst.Mem), w, &a.tmpSrc)

	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpMod,
		isa.OpAnd, isa.OpOr, isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSar, isa.OpRol:
		touched = a.aluTaint(v, in)

	case isa.OpNot:
		reg := &a.regs[in.Dst.Reg]
		touched = !reg.IsClean()
		reg.TruncateIn(w)
		a.trackReg(v, in, in.Dst.Reg)

	case isa.OpNeg:
		reg := &a.regs[in.Dst.Reg]
		touched = !reg.IsClean()
		if a.cfg.CarryAware {
			var zero taint.Word
			reg.SetAddCarryAware(&zero, reg)
		}
		reg.TruncateIn(w)
		a.trackReg(v, in, in.Dst.Reg)

	case isa.OpCmp, isa.OpTest:
		a.flagSrc[0].CopyFrom(&a.regs[in.Dst.Reg])
		a.flagSrc[0].TruncateIn(w)
		a.operandShadow(&a.flagSrc[1], in.Src, w)
		a.flagPC = v.PC
		touched = a.flagsTainted()

	case isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge,
		isa.OpJb, isa.OpJbe, isa.OpJa, isa.OpJae:
		if a.flagsTainted() {
			a.recordBranch(v, in)
			touched = true
		}

	case isa.OpPush:
		a.operandShadow(&a.tmpSrc, in.Src, 8)
		touched = !a.tmpSrc.IsClean()
		a.shadow.store(v.Regs[isa.SP]-8, 8, &a.tmpSrc)

	case isa.OpPop:
		a.shadow.load(&a.tmpSrc, v.Regs[isa.SP], 8)
		touched = !a.tmpSrc.IsClean() || !a.regs[in.Dst.Reg].IsClean()
		a.setReg(v, in, in.Dst.Reg, &a.tmpSrc)

	case isa.OpCall:
		var zero taint.Word
		a.shadow.store(v.Regs[isa.SP]-8, 8, &zero)
	}

	if touched {
		a.taintOps++
		if a.cfg.ReducedTrace && len(a.reduced) < maxReducedTrace {
			ev := ReducedEvent{PC: v.PC, Op: in.Op}
			if in.Op.IsCondJump() {
				ev.Taken = v.ZF // approximation only used for display
			}
			a.reduced = append(a.reduced, ev)
		}
	}
}

// aluTaint propagates taint for ALU instructions, including the
// read-modify-write memory-destination form. Returns whether taint moved.
func (a *Analyzer) aluTaint(v *vm.VM, in *isa.Instr) bool {
	w := int(in.Width)
	// A register source whose shadow has no bits above the operand width
	// needs no truncating copy: alias its live shadow directly. Excluded
	// when it is also the destination — combine mutates the destination
	// in place, and the post-combine `touched` test must see the
	// pre-instruction source.
	var src *taint.Word
	if in.Src.Kind == isa.KindReg &&
		(in.Dst.Kind != isa.KindReg || in.Dst.Reg != in.Src.Reg) &&
		(w == 8 || a.regs[in.Src.Reg].Mask()>>(uint(w)*8) == 0) {
		src = &a.regs[in.Src.Reg]
	} else {
		a.operandShadow(&a.tmpSrc, in.Src, w)
		src = &a.tmpSrc
	}

	// x86-style zeroing idiom: xor r, r produces a clean zero.
	if in.Op == isa.OpXor && in.Dst.Kind == isa.KindReg && in.Src.Kind == isa.KindReg &&
		in.Dst.Reg == in.Src.Reg {
		touched := !a.regs[in.Dst.Reg].IsClean()
		a.regs[in.Dst.Reg].Reset()
		a.trackReg(v, in, in.Dst.Reg)
		return touched
	}

	if in.Dst.Kind == isa.KindMem {
		addrT := a.addrTainted(in.Dst.Mem)
		addr := v.EffectiveAddr(in.Dst.Mem)
		if addrT {
			a.recordGadget(v, in, DataFlow, addr, in.Dst.Mem)
		}
		a.shadow.load(&a.tmpDst, addr, w)
		old := &a.tmpDst
		oldClean := old.IsClean()
		// The and/or mask rules read the concrete old memory value, and
		// only for a clean destination and a tainted source. A failing
		// load faults the instruction itself, so its error is dropped.
		var dstVal uint64
		if oldClean && !src.IsClean() && (in.Op == isa.OpAnd || in.Op == isa.OpOr) {
			dstVal, _ = v.Mem.Load(addr, w)
		}
		// Combine into tmpDst (aliasing old, which combine permits), then
		// latch the flags from the *untruncated* result, matching the
		// historical memory-destination rule.
		a.combine(old, in.Op, old, src, dstVal, v, in, w)
		a.latchFlags(old, v.PC)
		old.TruncateIn(w)
		a.storeShadowTracked(v, in, addr, w, old)
		return !oldClean || !src.IsClean() || addrT
	}

	// Combine straight into the register's shadow — the in-place Set*
	// forms permit the destination aliasing an operand, and src was
	// already copied into tmpSrc above, so a src==dst ALU still sees the
	// pre-instruction source shadow. Saves two full word copies per ALU
	// instruction.
	d := &a.regs[in.Dst.Reg]
	d.TruncateIn(w)
	dClean := d.IsClean()
	a.combine(d, in.Op, d, src, v.Regs[in.Dst.Reg], v, in, w)
	d.TruncateIn(w)
	a.latchFlags(d, v.PC)
	touched := !dClean || !src.IsClean()
	a.trackReg(v, in, in.Dst.Reg)
	return touched
}

// latchFlags makes word, the result of a one-operand flag setter, the
// flag latch's source.
func (a *Analyzer) latchFlags(word *taint.Word, pc int) {
	a.flagSrc[0].CopyFrom(word)
	a.flagSrc[1].Reset()
	a.flagPC = pc
}

// flagsTainted reports whether the latched flags carry any taint, from
// the live-bit masks alone.
func (a *Analyzer) flagsTainted() bool {
	return a.flagSrc[0].Mask()|a.flagSrc[1].Mask() != 0
}

// combine applies the per-opcode taint transfer function (the paper's
// Fig 1 decision tree plus the §III-B special cases for and-masks and
// shifts), storing the result into out. out may alias d; it must not
// alias s. dstVal is the destination's concrete pre-instruction value,
// which the and/or rules use as the mask when d is clean.
func (a *Analyzer) combine(out *taint.Word, op isa.Op, d, s *taint.Word, dstVal uint64, v *vm.VM, in *isa.Instr, w int) {
	switch op {
	case isa.OpAdd, isa.OpSub:
		if a.cfg.CarryAware {
			out.SetAddCarryAware(d, s)
			return
		}
		out.SetMergePerBit(d, s)
	case isa.OpXor:
		out.SetMergePerBit(d, s)
	case isa.OpOr:
		// Or with an untainted operand destroys taint where that operand
		// has 1 bits (forced to 1).
		if s.IsClean() {
			out.SetOrMask(d, a.srcValue(v, in, w))
			return
		}
		if d.IsClean() {
			out.SetOrMask(s, dstVal)
			return
		}
		out.SetMergePerBit(d, s)
	case isa.OpAnd:
		// And with an untainted mask keeps taint only at the mask's 1 bits.
		if s.IsClean() {
			out.SetAndMask(d, a.srcValue(v, in, w))
			return
		}
		if d.IsClean() {
			out.SetAndMask(s, dstVal)
			return
		}
		out.SetMergePerBit(d, s)
	case isa.OpShl, isa.OpShr, isa.OpSar, isa.OpRol:
		if !s.IsClean() {
			// Tainted shift count: conservatively smear everything.
			out.SetMergeAll(d, s)
			return
		}
		n := uint(a.srcValue(v, in, w))
		switch op {
		case isa.OpShl:
			out.SetShl(d, n)
		case isa.OpShr:
			out.SetShr(d, n)
		case isa.OpSar:
			out.SetSar(d, n, w)
		default:
			out.SetRol(d, n, w)
		}
	case isa.OpMul:
		// Multiplication by an untainted power of two is a shift.
		if s.IsClean() {
			val := a.srcValue(v, in, w)
			if val != 0 && val&(val-1) == 0 {
				out.SetShl(d, uint(bits.TrailingZeros64(val)))
				return
			}
		}
		if d.IsClean() && s.IsClean() {
			out.Reset()
			return
		}
		out.SetMergeAll(d, s)
	case isa.OpDiv, isa.OpMod:
		if d.IsClean() && s.IsClean() {
			out.Reset()
			return
		}
		out.SetMergeAll(d, s)
	default:
		out.SetMergePerBit(d, s)
	}
}

// srcValue returns the concrete (pre-instruction) value of the source
// operand, used for mask-aware taint rules.
func (a *Analyzer) srcValue(v *vm.VM, in *isa.Instr, w int) uint64 {
	switch in.Src.Kind {
	case isa.KindReg:
		return v.Regs[in.Src.Reg]
	case isa.KindImm:
		return uint64(in.Src.Imm)
	default:
		return 0
	}
}

// operandShadow stores the taint word of a register or immediate operand
// into dst, truncated to the operand width.
func (a *Analyzer) operandShadow(dst *taint.Word, o isa.Operand, w int) {
	if o.Kind == isa.KindReg {
		dst.CopyFrom(&a.regs[o.Reg])
		dst.TruncateIn(w)
		return
	}
	dst.Reset()
}

// addrTainted reports whether the effective address of m carries any
// taint, straight from the operand shadows' live-bit masks — the cheap
// emptiness test gating the per-access gadget checks, so the hot path
// never materializes the full address word (recordGadget builds it only
// while still collecting samples). It must agree with addrShadow's
// emptiness: shifting by the scale can push index taint off the top (the
// shift is applied to the mask too), and the carry-aware smear maps
// non-empty to non-empty, so one test covers both merge modes.
func (a *Analyzer) addrTainted(m isa.MemRef) bool {
	var mask uint64
	if m.HasBase {
		mask = a.regs[m.Base].Mask()
	}
	if m.HasIndex {
		mask |= a.regs[m.Index].Mask() << uint(bits.TrailingZeros8(m.Scale))
	}
	return mask != 0
}

// addrShadow computes the taint of a memory operand's effective address
// into dst: base + index*scale + disp, modelling the scale as a left shift
// (the pointer arithmetic that places ins_h<<1 inside rdx in Fig 2).
func (a *Analyzer) addrShadow(dst *taint.Word, m isa.MemRef) {
	if !m.HasBase && m.HasIndex && !a.cfg.CarryAware {
		// No base: merging the shifted index into a just-reset word is
		// exactly the shift, so compute it straight into dst. (Not valid
		// for the carry-aware ablation, whose merge smears tags upward
		// even against a clean operand.)
		dst.SetShl(&a.regs[m.Index], uint(bits.TrailingZeros8(m.Scale)))
		return
	}
	if m.HasBase {
		dst.CopyFrom(&a.regs[m.Base])
	} else {
		dst.Reset()
	}
	if m.HasIndex {
		a.tmpIdx.SetShl(&a.regs[m.Index], uint(bits.TrailingZeros8(m.Scale)))
		if a.cfg.CarryAware {
			dst.SetAddCarryAware(dst, &a.tmpIdx)
		} else {
			dst.SetMergePerBit(dst, &a.tmpIdx)
		}
	}
}

// setReg copies word into r's shadow. word may alias a scratch buffer; it
// is left untouched.
func (a *Analyzer) setReg(v *vm.VM, in *isa.Instr, r isa.Reg, word *taint.Word) {
	a.regs[r].CopyFrom(word)
	a.trackReg(v, in, r)
}

func (a *Analyzer) storeShadowTracked(v *vm.VM, in *isa.Instr, addr uint64, w int, word *taint.Word) {
	a.shadow.store(addr, w, word)
	a.trackWord(v, in, word, "-> memory")
}

// recordGadget records a tainted-address access. The caller has already
// established (via addrTainted) that mref's address shadow is non-empty;
// the full word is materialized only while the finding is still
// collecting samples, keeping steady-state gadget hits down to a counter
// bump.
func (a *Analyzer) recordGadget(v *vm.VM, in *isa.Instr, kind GadgetKind, addr uint64, mref isa.MemRef) {
	f := a.finding(kind, v, in)
	f.Count++
	if len(f.Samples) < a.cfg.MaxSamplesPerGadget {
		a.addrShadow(&a.tmpAddr, mref)
		f.Samples = append(f.Samples, AccessSample{
			Step: v.Steps, Addr: addr,
		})
		f.Samples[len(f.Samples)-1].AddrTaint.CopyFrom(&a.tmpAddr)
	}
}

func (a *Analyzer) recordBranch(v *vm.VM, in *isa.Instr) {
	f := a.finding(ControlFlow, v, in)
	f.Count++
	if len(f.Samples) < a.cfg.MaxSamplesPerGadget {
		flags := taint.Union(a.flagSrc[0].AllTags(), a.flagSrc[1].AllTags())
		var word taint.Word
		for i := 0; i < taint.WordBits; i++ {
			word.SetBit(i, flags)
		}
		f.Samples = append(f.Samples, AccessSample{
			Step: v.Steps, Addr: uint64(a.flagPC), AddrTaint: word,
			Taken: v.Halted == false && a.branchTaken(v, in),
		})
	}
}

// finding returns the kind finding at v.PC, creating it on first use.
func (a *Analyzer) finding(kind GadgetKind, v *vm.VM, in *isa.Instr) *Finding {
	f := a.byPC[kind][v.PC]
	if f == nil {
		f = &Finding{Kind: kind, PC: v.PC, Instr: *in}
		a.byPC[kind][v.PC] = f
		a.order = append(a.order, f)
	}
	return f
}

func (a *Analyzer) branchTaken(v *vm.VM, in *isa.Instr) bool {
	switch in.Op {
	case isa.OpJe:
		return v.ZF
	case isa.OpJne:
		return !v.ZF
	case isa.OpJl:
		return v.SF
	case isa.OpJle:
		return v.SF || v.ZF
	case isa.OpJg:
		return !v.SF && !v.ZF
	case isa.OpJge:
		return !v.SF
	case isa.OpJb:
		return v.CF
	case isa.OpJbe:
		return v.CF || v.ZF
	case isa.OpJa:
		return !v.CF && !v.ZF
	case isa.OpJae:
		return !v.CF
	}
	return false
}

// trackReg appends a history event for any tracked tag present in r's
// shadow.
func (a *Analyzer) trackReg(v *vm.VM, in *isa.Instr, r isa.Reg) {
	if len(a.cfg.TrackTags) == 0 {
		return
	}
	a.trackWord(v, in, &a.regs[r], "-> "+r.String())
}

// trackWord appends a history event for any tracked tag present in word.
func (a *Analyzer) trackWord(v *vm.VM, in *isa.Instr, word *taint.Word, note string) {
	if len(a.cfg.TrackTags) == 0 {
		return
	}
	tags := word.AllTags()
	if tags.IsEmpty() {
		return
	}
	for _, t := range tags.Tags() {
		if a.cfg.TrackTags[t] {
			a.recordHistory(t, v.Steps, v.PC, in.String(), note)
		}
	}
}

func (a *Analyzer) recordHistory(t taint.Tag, step uint64, pc int, instr, note string) {
	h := a.history[t]
	if len(h) >= maxHistoryPerTag {
		return
	}
	a.history[t] = append(h, HistEvent{Step: step, PC: pc, Instr: instr, Note: note})
}

// RegTaint exposes a register's current shadow (tests, reports). The
// returned pointer aliases the analyzer's live state; callers must not
// mutate it.
func (a *Analyzer) RegTaint(r isa.Reg) *taint.Word { return &a.regs[r] }

// MemTaint exposes a memory byte's current shadow.
func (a *Analyzer) MemTaint(addr uint64) [8]*taint.Set {
	var w taint.Word
	a.shadow.load(&w, addr, 1)
	return w.Bytes()[0]
}

// LiveShadowBytes returns how many memory bytes currently carry taint
// (tests, reports).
func (a *Analyzer) LiveShadowBytes() int { return a.shadow.live }
