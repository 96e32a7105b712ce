package isa

import (
	"errors"
	"strings"
	"testing"
)

func TestAssembleBasicProgram(t *testing.T) {
	src := `
; simple counting loop
.entry main
.data buf 256 align=64
main:
  mov r1, 0
loop:
  st.1 [buf + r1], r1
  add r1, 1
  cmp r1, 0x10
  jne loop
  halt
`
	p, err := Assemble("basic", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if len(p.Instrs) != 6 {
		t.Fatalf("got %d instructions, want 6", len(p.Instrs))
	}
	if p.Entry != 0 {
		t.Errorf("entry = %d, want 0", p.Entry)
	}
	jne := p.Instrs[4]
	if jne.Op != OpJne || jne.Target != 1 {
		t.Errorf("jne target = %d, want 1", jne.Target)
	}
	sym := p.MustSymbol("buf")
	if sym.Addr%64 != 0 {
		t.Errorf("buf addr %#x not 64-aligned", sym.Addr)
	}
	if sym.Size != 256 {
		t.Errorf("buf size = %d, want 256", sym.Size)
	}
	st := p.Instrs[1]
	if st.Op != OpSt || st.Width != 1 {
		t.Errorf("st parsed as %+v", st)
	}
	if st.Dst.Mem.Disp != int64(sym.Addr) {
		t.Errorf("symbol displacement = %#x, want %#x", st.Dst.Mem.Disp, sym.Addr)
	}
}

func TestAssembleDataLayout(t *testing.T) {
	src := `
.base 0x20000
.data a 10
.data b 100 align=64
.data c 8
main:
  halt
`
	p, err := Assemble("layout", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	a := p.MustSymbol("a")
	b := p.MustSymbol("b")
	c := p.MustSymbol("c")
	if a.Addr != 0x20000 {
		t.Errorf("a at %#x, want 0x20000", a.Addr)
	}
	if b.Addr != 0x20040 { // 0x2000a rounded up to 64
		t.Errorf("b at %#x, want 0x20040", b.Addr)
	}
	if c.Addr != b.Addr+100 {
		t.Errorf("c at %#x, want %#x", c.Addr, b.Addr+100)
	}
	if p.DataSize != c.Addr+8-0x20000 {
		t.Errorf("DataSize = %d", p.DataSize)
	}
}

func TestAssembleConstAndChar(t *testing.T) {
	src := `
.const MASK 0x7fff
main:
  mov r1, MASK
  mov r2, 'a'
  halt
`
	p, err := Assemble("const", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if p.Instrs[0].Src.Imm != 0x7fff {
		t.Errorf("const = %#x, want 0x7fff", p.Instrs[0].Src.Imm)
	}
	if p.Instrs[1].Src.Imm != 'a' {
		t.Errorf("char = %d, want %d", p.Instrs[1].Src.Imm, 'a')
	}
}

func TestAssembleInit(t *testing.T) {
	src := `
.data msg 16
.init msg "hi\n"
.data raw 4
.init raw 1 2 0xff
main:
  halt
`
	p, err := Assemble("init", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if len(p.Init) != 2 {
		t.Fatalf("got %d inits, want 2", len(p.Init))
	}
	if string(p.Init[0].Bytes) != "hi\n" {
		t.Errorf("string init = %q", p.Init[0].Bytes)
	}
	if p.Init[1].Bytes[2] != 0xff {
		t.Errorf("raw init = %v", p.Init[1].Bytes)
	}
}

func TestAssembleMemOperandForms(t *testing.T) {
	src := `
.data tab 64
main:
  ld.2 r1, [tab + r2*2 + 8]
  ld.4 r3, [r4 + r5*4]
  ld.8 r6, [r7]
  ld.1 r8, [tab]
  st.8 [r1 + 16], r2
  halt
`
	p, err := Assemble("mem", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	m := p.Instrs[0].Src.Mem
	if !m.HasIndex || m.Index != R2 || m.Scale != 2 {
		t.Errorf("index parse: %+v", m)
	}
	tab := p.MustSymbol("tab")
	if m.Disp != int64(tab.Addr)+8 {
		t.Errorf("disp = %#x, want %#x", m.Disp, tab.Addr+8)
	}
	m2 := p.Instrs[1].Src.Mem
	if !m2.HasBase || m2.Base != R4 || m2.Index != R5 || m2.Scale != 4 {
		t.Errorf("base+index parse: %+v", m2)
	}
	m4 := p.Instrs[4].Dst.Mem
	if !m4.HasBase || m4.Base != R1 || m4.Disp != 16 {
		t.Errorf("base+disp parse: %+v", m4)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"unknown mnemonic", "main:\n frob r1, r2\n"},
		{"undefined label", "main:\n jmp nowhere\n"},
		{"undefined symbol", "main:\n ld.1 r1, [nothing]\n halt\n"},
		{"bad width", "main:\n mov.3 r1, r2\n"},
		{"dup label", "a:\n nop\na:\n halt\n"},
		{"dup data", ".data x 8\n.data x 8\nmain:\n halt\n"},
		{"bad scale", ".data t 8\nmain:\n ld.1 r1, [t + r2*3]\n halt\n"},
		{"mem to mem", ".data t 8\nmain:\n st.1 [t], [t]\n"},
		{"imm dest", "main:\n add 5, r1\n"},
		{"empty program", "; nothing\n"},
		{"bad align", ".data t 8 align=3\nmain:\n halt\n"},
		{"init overflow", ".data t 2\n.init t \"toolong\"\nmain:\n halt\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Assemble("bad", tc.src)
			if err == nil {
				t.Fatal("expected error, got nil")
			}
			if !errors.Is(err, ErrAssemble) {
				t.Errorf("error %v is not ErrAssemble", err)
			}
		})
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
.data tab 64 align=64
main:
  mov r1, 0
  ld.2 r2, [tab + r1*2]
  xor r2, r1
  shl.2 r2, 5
  and r2, 0x7fff
  st.2 [tab + r2*2], r1
  add r1, 1
  cmp r1, 32
  jl main
  push r1
  pop r2
  not r2
  halt
`
	p, err := Assemble("round", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	text := Disassemble(p)
	for _, want := range []string{"mov r1, 0", "ld.2 r2,", "jl main", "halt", "=>"} {
		if !strings.Contains(text, want) {
			t.Errorf("disassembly missing %q:\n%s", want, text)
		}
	}
	// Re-assembling the disassembly of reg/imm instructions should parse.
	for i, in := range p.Instrs {
		if in.Op.IsJump() {
			continue // labels render fine but need context
		}
		one := "main:\n  " + in.String() + "\n  halt\n"
		// Memory operands with symbols resolve to absolute displacements on
		// re-parse; just check the text parses.
		one = strings.ReplaceAll(one, "tab+", "")
		if _, err := Assemble("re", one); err != nil {
			t.Errorf("instr %d (%s) does not re-assemble: %v", i, in, err)
		}
	}
}

func TestLabelOnSameLine(t *testing.T) {
	p, err := Assemble("inline", "main: mov r1, 1\n halt\n")
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if len(p.Instrs) != 2 {
		t.Fatalf("got %d instrs, want 2", len(p.Instrs))
	}
}

func TestNegativeDisp(t *testing.T) {
	p, err := Assemble("neg", "main:\n ld.8 r1, [r2 - 8]\n halt\n")
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if p.Instrs[0].Src.Mem.Disp != -8 {
		t.Errorf("disp = %d, want -8", p.Instrs[0].Src.Mem.Disp)
	}
}
