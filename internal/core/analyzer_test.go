package core

import (
	"strings"
	"testing"

	"github.com/zipchannel/zipchannel/internal/isa"
	"github.com/zipchannel/zipchannel/internal/taint"
	"github.com/zipchannel/zipchannel/internal/victims"
	"github.com/zipchannel/zipchannel/internal/vm"
)

// analyze assembles nothing: it runs an already-built program under a
// fresh analyzer and returns the report.
func analyze(t *testing.T, prog *isa.Program, input []byte, cfg Config) (*Report, *Analyzer) {
	t.Helper()
	return analyzeOn(t, prog, input, cfg, compiled)
}

// engine names one of the two execution strategies every edge-case
// program runs under: the per-instruction interpreter and the compiled
// engine with block-level taint skipping.
type engine string

const (
	interp   engine = "interp"
	compiled engine = "compiled"
)

var engines = []engine{interp, compiled}

// analyzeOn is analyze on a chosen engine.
func analyzeOn(t *testing.T, prog *isa.Program, input []byte, cfg Config, eng engine) (*Report, *Analyzer) {
	t.Helper()
	machine, err := vm.NewFlat(prog)
	if err != nil {
		t.Fatalf("NewFlat: %v", err)
	}
	machine.Interp = eng == interp
	machine.SetInput(input)
	a := New(cfg)
	a.Attach(machine)
	if err := machine.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return a.Report(prog.Name), a
}

func TestTaintPropagationThroughRegisters(t *testing.T) {
	prog := isa.MustAssemble("prop", `
.data buf 16
.data out 16
main:
  mov r0, 0
  lea r2, [buf]
  mov r3, 1
  syscall
  ld.1 r1, [buf]     ; tainted with tag 1
  mov r2, r1
  shl r2, 4
  st.2 [out], r2
  halt
`)
	_, a := analyze(t, prog, []byte{0xAB}, Config{})
	outAddr := prog.MustSymbol("out").Addr
	lo := a.MemTaint(outAddr)
	// Bits 4-7 of out[0] tainted with tag 1.
	for i := 0; i < 4; i++ {
		if !lo[i].IsEmpty() {
			t.Errorf("out bit %d should be clean", i)
		}
	}
	for i := 4; i < 8; i++ {
		if !lo[i].Contains(1) {
			t.Errorf("out bit %d should carry tag 1", i)
		}
	}
	hi := a.MemTaint(outAddr + 1)
	for i := 0; i < 4; i++ {
		if !hi[i].Contains(1) {
			t.Errorf("out+1 bit %d should carry tag 1", i)
		}
	}
}

func TestXorZeroingIdiomClearsTaint(t *testing.T) {
	prog := isa.MustAssemble("xz", `
.data buf 8
main:
  mov r0, 0
  lea r2, [buf]
  mov r3, 1
  syscall
  ld.1 r1, [buf]
  xor r1, r1       ; zeroing idiom: must clear taint
  st.1 [buf + 4], r1
  halt
`)
	_, a := analyze(t, prog, []byte{0xFF}, Config{})
	if !a.RegTaint(isa.R1).IsClean() {
		t.Error("xor r1, r1 should clear r1's taint")
	}
}

func TestAndMaskRestrictsTaint(t *testing.T) {
	prog := isa.MustAssemble("am", `
.data buf 8
main:
  mov r0, 0
  lea r2, [buf]
  mov r3, 1
  syscall
  ld.1 r1, [buf]
  and r1, 0x0f
  halt
`)
	_, a := analyze(t, prog, []byte{0xFF}, Config{})
	w := a.RegTaint(isa.R1)
	for i := 0; i < 4; i++ {
		if !w.Bit(i).Contains(1) {
			t.Errorf("bit %d should stay tainted", i)
		}
	}
	for i := 4; i < 8; i++ {
		if !w.Bit(i).IsEmpty() {
			t.Errorf("bit %d should be masked clean", i)
		}
	}
}

func TestConstantTimeProgramHasNoFindings(t *testing.T) {
	rep, _ := analyze(t, victims.ConstantTime(), []byte("the quick brown fox"), Config{})
	if len(rep.Findings) != 0 {
		t.Errorf("constant-time program produced %d findings:\n%s", len(rep.Findings), rep)
	}
}

// E1 / Fig 2: the zlib INSERT_STRING gadget must be found, with the
// address taint of three consecutive input bytes at bit ranges 1-8, 6-13,
// and 11-15 (the 15-bit rolling hash shifted by 1 for the 2-byte entry).
func TestZlibGadgetFig2BitPositions(t *testing.T) {
	input := []byte("abcdefghijklmnopqrstuvwxyz0123456789")
	rep, _ := analyze(t, victims.ZlibInsertString(), input, Config{MaxSamplesPerGadget: 16})
	df := rep.DataFlowFindings()
	if len(df) != 1 {
		t.Fatalf("got %d data-flow findings, want 1 (the head store):\n%s", len(df), rep)
	}
	f := df[0]
	if f.Instr.Op != isa.OpSt || f.Instr.Width != 2 {
		t.Errorf("gadget instr = %s, want a 2-byte store", f.Instr.String())
	}
	if f.Count != len(input)-2 {
		t.Errorf("gadget triggered %d times, want %d", f.Count, len(input)-2)
	}
	// Sample k corresponds to loop iteration i=k inserting bytes k..k+2
	// (tags k+1..k+3). Check the third sample: tags 3,4,5.
	s := f.Samples[2]
	checks := []struct {
		tag    taint.Tag
		lo, hi int // inclusive tainted bit range in the address
	}{
		{5, 1, 8},   // newest byte: hash bits 0-7, shifted by 1
		{4, 6, 13},  // middle byte: hash bits 5-12, shifted by 1
		{3, 11, 15}, // oldest byte: hash bits 10-14 (mask 0x7fff), shifted by 1
	}
	for _, c := range checks {
		for bit := 0; bit < 20; bit++ {
			has := s.AddrTaint.Bit(bit).Contains(c.tag)
			want := bit >= c.lo && bit <= c.hi
			if has != want {
				t.Errorf("tag %d at bit %d: tainted=%v, want %v", c.tag, bit, has, want)
			}
		}
	}
}

// E2 / Fig 3: the LZW htab probe must be found with the newest input byte
// at bits 9-16 of the hash (c << 9), i.e. bits 12-19 of the byte-scaled
// address (scale 8 adds 3 more).
func TestLZWGadgetFig3BitPositions(t *testing.T) {
	input := []byte{0x20, 0x20, 0x41, 0x42}
	rep, _ := analyze(t, victims.LZWHashProbe(), input, Config{MaxSamplesPerGadget: 16})
	df := rep.DataFlowFindings()
	if len(df) < 1 {
		t.Fatalf("no data-flow findings:\n%s", rep)
	}
	// The first finding is the htab load probe.
	f := df[0]
	if f.Instr.Op != isa.OpLd {
		t.Errorf("first gadget = %s, want the htab load", f.Instr.String())
	}
	s := f.Samples[0] // i=1: c = input[1] (tag 2), ent = input[0] (tag 1)
	for bit := 12; bit <= 19; bit++ {
		if !s.AddrTaint.Bit(bit).Contains(2) {
			t.Errorf("address bit %d should carry tag 2 (c << 9 << 3)", bit)
		}
	}
	for bit := 3; bit <= 10; bit++ {
		if !s.AddrTaint.Bit(bit).Contains(1) {
			t.Errorf("address bit %d should carry tag 1 (ent << 3)", bit)
		}
	}
	if s.AddrTaint.Bit(0).Contains(1) || s.AddrTaint.Bit(2).Contains(2) {
		t.Error("bits 0-2 must be clean: scale-8 pointer arithmetic")
	}
}

// E3 / Fig 4: the bzip2 ftab increment must show two consecutive input
// bytes in the address: block[i] at hash bits 8-15 and block[i+1] at bits
// 0-7, shifted left 2 by the 4-byte scale.
func TestBzipGadgetFig4BitPositions(t *testing.T) {
	input := []byte("ILLINOIS")
	rep, _ := analyze(t, victims.BzipFtabAligned(), input, Config{MaxSamplesPerGadget: 16})
	df := rep.DataFlowFindings()
	if len(df) != 1 {
		t.Fatalf("got %d data-flow findings, want 1 (ftab increment):\n%s", len(df), rep)
	}
	f := df[0]
	if f.Instr.Op != isa.OpAdd || f.Instr.Dst.Kind != isa.KindMem {
		t.Errorf("gadget = %s, want add [ftab+...], 1", f.Instr.String())
	}
	if f.Count != len(input) {
		t.Errorf("triggered %d times, want %d", f.Count, len(input))
	}
	// Iteration order is i = n-1 .. 0. First sample: i=7, j = (block[0]<<8
	// after shr)|(block[7]<<8): actually j = block[7]<<8 | block[0].
	// Tags are 1-based: block[7] = tag 8 at hash bits 8-15; block[0] = tag
	// 1 at hash bits 0-7. Address = ftab + j*4: shift everything by 2.
	s := f.Samples[0]
	for bit := 10; bit <= 17; bit++ {
		if !s.AddrTaint.Bit(bit).Contains(8) {
			t.Errorf("addr bit %d should carry tag 8 (block[i]<<8, scaled)", bit)
		}
	}
	for bit := 2; bit <= 9; bit++ {
		if !s.AddrTaint.Bit(bit).Contains(1) {
			t.Errorf("addr bit %d should carry tag 1 (block[i+1], scaled)", bit)
		}
	}
	// Second sample: i=6 pairs block[6] (tag 7) with block[7] (tag 8):
	// tag 8 moves from the high half to the low half, as in Fig 4.
	s2 := f.Samples[1]
	for bit := 2; bit <= 9; bit++ {
		if !s2.AddrTaint.Bit(bit).Contains(8) {
			t.Errorf("2nd iter addr bit %d should carry tag 8 in low half", bit)
		}
	}
	for bit := 10; bit <= 17; bit++ {
		if !s2.AddrTaint.Bit(bit).Contains(7) {
			t.Errorf("2nd iter addr bit %d should carry tag 7 in high half", bit)
		}
	}
}

// E5: TaintChannel rediscovers the Osvik et al. AES T-table gadget.
func TestAESGadgetFound(t *testing.T) {
	pt := make([]byte, 16)
	for i := range pt {
		pt[i] = byte(i * 17)
	}
	rep, _ := analyze(t, victims.AESFirstRound(), pt, Config{})
	df := rep.DataFlowFindings()
	if len(df) != 1 {
		t.Fatalf("got %d data-flow findings, want 1 (Te0 lookup):\n%s", len(df), rep)
	}
	f := df[0]
	if f.Count != 16 {
		t.Errorf("Te0 lookup triggered %d times, want 16", f.Count)
	}
	// Each lookup's address is tainted by exactly one plaintext byte at
	// bits 2-9 (byte << 2 for the 4-byte entries).
	s := f.Samples[0]
	for bit := 2; bit <= 9; bit++ {
		if !s.AddrTaint.Bit(bit).Contains(1) {
			t.Errorf("addr bit %d should carry tag 1", bit)
		}
	}
	if s.AddrTaint.Bit(1).Contains(1) || s.AddrTaint.Bit(10).Contains(1) {
		t.Error("taint outside bits 2-9")
	}
}

// E6: the memcpy length branch is flagged as a control-flow gadget, and
// reduced traces differ between a multiple-of-8 and a non-multiple size.
func TestMemcpyControlFlowGadget(t *testing.T) {
	mk := func(n byte) []byte {
		in := make([]byte, int(n)+1)
		in[0] = n
		return in
	}
	rep8, a8 := analyze(t, victims.Memcpy(), mk(96), Config{ReducedTrace: true})
	rep9, a9 := analyze(t, victims.Memcpy(), mk(97), Config{ReducedTrace: true})
	if len(rep8.ControlFlowFindings()) == 0 {
		t.Fatalf("no control-flow findings for size 96:\n%s", rep8)
	}
	if len(rep9.ControlFlowFindings()) == 0 {
		t.Fatalf("no control-flow findings for size 97:\n%s", rep9)
	}
	div := DiffTraces(a8.Reduced(), a9.Reduced())
	if len(div) == 0 {
		t.Error("reduced traces for 96 vs 97 bytes should diverge")
	}
}

func TestTagHistoryTracking(t *testing.T) {
	input := []byte{0x20, 0x20, 0x41, 0x42}
	_, a := analyze(t, victims.LZWHashProbe(), input, Config{
		TrackTags: map[taint.Tag]bool{2: true},
	})
	h := a.History(2)
	if len(h) < 4 {
		t.Fatalf("history for tag 2 too short: %d events", len(h))
	}
	if h[0].Instr != "read syscall" {
		t.Errorf("first event = %q, want read syscall", h[0].Instr)
	}
	var sawShl, sawXor bool
	for _, e := range h {
		if strings.HasPrefix(e.Instr, "shl") {
			sawShl = true
		}
		if strings.HasPrefix(e.Instr, "xor") {
			sawXor = true
		}
	}
	if !sawShl || !sawXor {
		t.Errorf("history should include shl and xor steps: %+v", h)
	}
}

func TestReportRendering(t *testing.T) {
	input := []byte("abcdefgh")
	rep, _ := analyze(t, victims.ZlibInsertString(), input, Config{})
	text := rep.String()
	for _, want := range []string{
		"Taint-dependent memory access",
		"head", // symbolic operand
		"| x",  // matrix marks
		"(tainted)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestRenderTaintMatrixLayout(t *testing.T) {
	var w taint.Word
	for i := 1; i <= 8; i++ {
		w.SetBit(i, taint.NewSet(5752))
	}
	for i := 6; i <= 13; i++ {
		w.SetBit(i, taint.Union(w.Bit(i), taint.NewSet(5751)))
	}
	out := RenderTaintMatrix(&w)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // two tag rows + footer
		t.Fatalf("matrix has %d lines, want 3:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "5751:") {
		t.Errorf("rows should be sorted by tag: %q", lines[0])
	}
	if !strings.Contains(lines[2], "15") || !strings.Contains(lines[2], " 0") {
		t.Errorf("footer should show bit indices 15..0: %q", lines[2])
	}
}

func TestCarryAwareModeSmearsUpward(t *testing.T) {
	prog := isa.MustAssemble("carry", `
.data buf 8
main:
  mov r0, 0
  lea r2, [buf]
  mov r3, 1
  syscall
  ld.1 r1, [buf]
  add r1, 100        ; carries can flow upward
  halt
`)
	_, def := analyze(t, prog, []byte{0x7F}, Config{})
	_, snd := analyze(t, prog, []byte{0x7F}, Config{CarryAware: true})
	if def.RegTaint(isa.R1).Bit(20).Contains(1) {
		t.Error("default mode should not taint bit 20")
	}
	if !snd.RegTaint(isa.R1).Bit(20).Contains(1) {
		t.Error("carry-aware mode should taint bit 20")
	}
}

func TestAnalyzerCounters(t *testing.T) {
	rep, a := analyze(t, victims.ConstantTime(), []byte("xyz"), Config{})
	if a.InstrCount() == 0 {
		t.Error("InstrCount should be > 0")
	}
	if rep.InstrCount != a.InstrCount() {
		t.Error("report should carry the instruction count")
	}
	if a.TaintOps() == 0 {
		t.Error("loading tainted bytes still touches taint")
	}
}

// The §VIII oblivious histogram variant still performs a taint-dependent
// store (bits 2-5 of the address carry the input's low nibble), but the
// dependence sits entirely below cache-line granularity: TaintChannel
// must flag it as invisible to the cache channel, while the vulnerable
// variant is visible.
func TestCacheVisibilityFilter(t *testing.T) {
	input := []byte("ILLINOIS")
	repVuln, _ := analyze(t, victims.BzipFtab(victims.BzipFtabOptions{FtabPad: 20}), input, Config{})
	repObl, _ := analyze(t, victims.BzipFtabOblivious(victims.BzipFtabOptions{FtabPad: 20}), input, Config{})

	if len(repVuln.CacheVisibleFindings()) == 0 {
		t.Error("vulnerable ftab gadget should be cache-visible")
	}
	oblDF := repObl.DataFlowFindings()
	if len(oblDF) == 0 {
		t.Fatal("oblivious variant still has a tainted-address store to find")
	}
	for _, f := range oblDF {
		if f.CacheVisible(CacheLineOffsetBits) {
			t.Errorf("oblivious gadget %s should be below line granularity", f.Instr.String())
		}
	}
	if len(repObl.CacheVisibleFindings()) != 0 {
		t.Errorf("oblivious victim should have no cache-visible findings, got %d",
			len(repObl.CacheVisibleFindings()))
	}
	if !strings.Contains(repObl.String(), "invisible at cache-line granularity") {
		t.Error("report should annotate sub-line gadgets")
	}
}

// The oblivious victim must still compute the correct histogram: the
// mitigation preserves semantics.
func TestObliviousVictimSemantics(t *testing.T) {
	prog := victims.BzipFtabOblivious(victims.BzipFtabOptions{FtabPad: 20})
	machine, err := vm.NewFlat(prog)
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("abracadabra")
	machine.SetInput(input)
	if err := machine.Run(); err != nil {
		t.Fatal(err)
	}
	n := len(input)
	want := map[uint64]uint64{}
	for i := 0; i < n; i++ {
		j := uint64(input[i])<<8 | uint64(input[(i+1)%n])
		want[j]++
	}
	ftab := prog.MustSymbol("ftab")
	flat := machine.Mem.(*vm.FlatMemory)
	for j := uint64(0); j < 65536; j++ {
		got, err := flat.Load(ftab.Addr+4*j, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[j] {
			t.Fatalf("ftab[%#x] = %d, want %d", j, got, want[j])
		}
	}
}

// A memory-destination and/or with a clean destination shadow masks the
// source's taint by the old memory value (here 0), not by a register.
// r0 holds 255 so that reading the wrong operand shows.
func TestMemDestAndOrMasksByMemoryValue(t *testing.T) {
	for _, tc := range []struct {
		op      string
		tainted bool
	}{
		{"and", false}, // 0 & x is 0 whatever x is
		{"or", true},   // 0 | x is x
	} {
		prog := isa.MustAssemble(tc.op, `
.data buf 8
.data out 8
main:
  mov r0, 0
  lea r2, [buf]
  mov r3, 1
  syscall
  ld.1 r1, [buf]
  mov r0, 255
  `+tc.op+`.1 [out], r1
  halt
`)
		for _, eng := range engines {
			_, a := analyzeOn(t, prog, []byte{0xFF}, Config{}, eng)
			var got, want uint8
			for i, s := range a.MemTaint(prog.MustSymbol("out").Addr) {
				if s.Contains(1) {
					got |= 1 << i
				}
			}
			if tc.tainted {
				want = 0xff
			}
			if got != want {
				t.Errorf("%s/%s: out bits carrying tag 1 = %#x, want %#x", tc.op, eng, got, want)
			}
		}
	}
}

// branchTags returns the flag tag set of every control-flow sample in
// rep, failing unless there is exactly one control-flow finding.
func branchTags(t *testing.T, rep *Report) []*taint.Set {
	t.Helper()
	cf := rep.ControlFlowFindings()
	if len(cf) != 1 {
		t.Fatalf("want 1 control-flow finding, got %d:\n%s", len(cf), rep)
	}
	var out []*taint.Set
	for _, s := range cf[0].Samples {
		out = append(out, s.AddrTaint.AllTags())
	}
	return out
}

// The flag latch: a branch sample carries the union of every tag its
// flag setter derived the flags from, on both engines.
func TestFlagLatchEdgeCases(t *testing.T) {
	// cmp of two differently tainted registers: both operands' tags.
	cmpProg := isa.MustAssemble("cmp2", `
.data buf 8
main:
  mov r0, 0
  lea r2, [buf]
  mov r3, 2
  syscall
  ld.1 r1, [buf]
  ld.1 r4, [buf + 1]
  cmp r1, r4
  je done
done:
  halt
`)
	// A memory-destination flag setter: the flags come from the result
	// before truncation to the operand width. out's low nibble carries
	// tag 1 and its high nibble tag 2; shl.1 by 4 keeps only tag 1 in
	// the stored byte and shifts tag 2 out, but the flags carry both.
	// The assembler admits memory destinations only for add/sub/and/or/
	// xor, none of which moves taint above the operand width, so the shl
	// is patched in over an add; the VM executes any ALU op in that form.
	memProg := isa.MustAssemble("memflags", `
.data buf 8
.data out 8
main:
  mov r0, 0
  lea r2, [buf]
  mov r3, 2
  syscall
  ld.1 r1, [buf]
  and r1, 0x0f
  ld.1 r4, [buf + 1]
  and r4, 0xf0
  or r1, r4
  st.1 [out], r1
  add.1 [out], 4
  jne done
done:
  halt
`)
	for i := range memProg.Instrs {
		if in := &memProg.Instrs[i]; in.Op == isa.OpAdd && in.Dst.Kind == isa.KindMem {
			in.Op = isa.OpShl
		}
	}
	both := taint.NewSet(1, 2)
	for _, eng := range engines {
		for _, prog := range []*isa.Program{cmpProg, memProg} {
			rep, a := analyzeOn(t, prog, []byte{0x5A, 0xC3}, Config{}, eng)
			for i, got := range branchTags(t, rep) {
				if got != both {
					t.Errorf("%s/%s: sample %d flag tags = %s, want %s", prog.Name, eng, i, got, both)
				}
			}
			if prog != memProg {
				continue
			}
			out := a.MemTaint(prog.MustSymbol("out").Addr)
			for i, s := range out {
				if want := i >= 4; s.Contains(1) != want || s.Contains(2) {
					t.Errorf("%s: stored out bit %d = %s, want tag 1 only on bits 4-7", eng, i, s)
				}
			}
			if hi := a.MemTaint(prog.MustSymbol("out").Addr + 1); hi != [8]*taint.Set{} {
				t.Errorf("%s: out+1 should stay clean, got %v", eng, hi)
			}
		}
	}
}

// A block that sets flags from clean data resets the latch, also when the
// compiled engine skips it: a later branch on those flags is no finding.
// Without the clean flag setter, the same branch sees the tainted flags
// of the cmp before it.
func TestFlagLatchResetBySkippedBlock(t *testing.T) {
	const tmpl = `
.data buf 8
main:
  mov r0, 0
  lea r2, [buf]
  mov r3, 1
  syscall
  ld.1 r1, [buf]
  cmp r1, 7
  jmp clean
clean:
  mov r4, 5
  %s
  jmp tail
tail:
  je done
done:
  halt
`
	for _, tc := range []struct {
		setter   string
		findings int
	}{
		{"cmp r4, 3", 0},
		{"nop", 1},
	} {
		prog := isa.MustAssemble("skipflags", strings.Replace(tmpl, "%s", tc.setter, 1))
		for _, eng := range engines {
			rep, _ := analyzeOn(t, prog, []byte{0x42}, Config{}, eng)
			if got := len(rep.ControlFlowFindings()); got != tc.findings {
				t.Errorf("%q/%s: %d control-flow findings, want %d:\n%s", tc.setter, eng, got, tc.findings, rep)
			}
		}
	}
}
