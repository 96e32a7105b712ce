package core_test

import (
	"fmt"
	"strings"
	"testing"

	"github.com/zipchannel/zipchannel/internal/isa"
)

// FuzzVMDifferential feeds random short programs through both engines and
// demands bit-identical machine state, output, memory, flags, taint
// shadow, and error strings. The generator maps fuzz bytes onto a small
// assembly palette — ALU ops, (partially masked) loads and stores, an
// index-without-base access, conditional jumps to arbitrary labels,
// write/exit syscalls — over a program that first reads tainted input, so
// the block-level transfer functions and their precise fallback both see
// real work. A tight MaxSteps (10k) keeps looping programs bounded; the runaway
// error must then also be identical between engines.

// fuzzProgram renders the fuzz input into assembly source. Every
// generated instruction carries a label so jumps can target any slot.
func fuzzProgram(data []byte) string {
	var b strings.Builder
	b.WriteString(".data buf 256 align=64\n")
	b.WriteString("main:\n")
	b.WriteString("  mov r0, 0\n")
	b.WriteString("  lea r2, [buf]\n")
	b.WriteString("  mov r3, 96\n")
	b.WriteString("  syscall\n")

	n := len(data) / 3
	if n > 48 {
		n = 48
	}
	conds := []string{"je", "jne", "jl", "jle", "jg", "jge", "jb", "jbe", "ja", "jae"}
	alu := []string{"add", "sub", "and", "or", "xor", "mul"}
	for i := 0; i < n; i++ {
		op, x, y := data[3*i], data[3*i+1], data[3*i+2]
		rd := fmt.Sprintf("r%d", 1+x%12)
		rs := fmt.Sprintf("r%d", 1+y%12)
		fmt.Fprintf(&b, "L%d:\n", i)
		switch op % 19 {
		case 0:
			fmt.Fprintf(&b, "  mov %s, %s\n", rd, rs)
		case 1:
			fmt.Fprintf(&b, "  mov %s, %d\n", rd, y)
		case 2, 3:
			fmt.Fprintf(&b, "  %s %s, %s\n", alu[int(op)%len(alu)], rd, rs)
		case 4:
			fmt.Fprintf(&b, "  %s %s, %d\n", alu[int(y)%len(alu)], rd, x)
		case 5:
			fmt.Fprintf(&b, "  shl %s, %d\n", rd, y%24)
		case 6:
			fmt.Fprintf(&b, "  shr %s, %d\n", rd, y%24)
		case 7:
			fmt.Fprintf(&b, "  not %s\n", rd)
		case 8:
			fmt.Fprintf(&b, "  neg %s\n", rd)
		case 9:
			fmt.Fprintf(&b, "  cmp %s, %s\n", rd, rs)
		case 10:
			fmt.Fprintf(&b, "  test %s, %d\n", rd, y)
		case 11:
			fmt.Fprintf(&b, "  %s L%d\n", conds[int(y)%len(conds)], int(x)%n)
		case 12:
			fmt.Fprintf(&b, "  jmp L%d\n", int(y)%n)
		case 13: // masked load: in range by construction
			fmt.Fprintf(&b, "  and %s, 127\n", rs)
			fmt.Fprintf(&b, "  ld.%d %s, [buf + %s]\n", 1<<(y%4), rd, rs)
		case 14: // masked store
			fmt.Fprintf(&b, "  and %s, 127\n", rs)
			fmt.Fprintf(&b, "  st.%d [buf + %s], %s\n", 1<<(y%4), rs, rd)
		case 15: // masked ALU-to-memory with an index-without-base EA
			fmt.Fprintf(&b, "  and %s, 63\n", rs)
			fmt.Fprintf(&b, "  add.2 [buf + %s*2], %s\n", rs, rd)
		case 16: // unmasked load: usually out of range; error strings must match
			fmt.Fprintf(&b, "  ld.4 %s, [buf + %s]\n", rd, rs)
		case 17:
			fmt.Fprintf(&b, "  lea %s, [buf + %s*4 + %d]\n", rd, rs, y)
		case 18: // write back a slice of the buffer
			fmt.Fprintf(&b, "  mov r0, 1\n  lea r2, [buf]\n  mov r3, %d\n  syscall\n", 1+y%32)
		}
	}
	b.WriteString("  mov r0, 2\n")
	b.WriteString("  mov r1, r4\n")
	b.WriteString("  syscall\n")
	b.WriteString("  halt\n")
	return b.String()
}

func FuzzVMDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 13, 5, 9, 15, 3, 3, 11, 0, 4})
	f.Add([]byte{16, 200, 9, 18, 1, 7, 12, 0, 0})
	f.Add([]byte{13, 4, 4, 2, 4, 5, 14, 4, 6, 11, 9, 2, 5, 1, 9, 9, 1, 2, 11, 2, 6})
	f.Add([]byte{15, 8, 3, 13, 3, 1, 10, 3, 3, 11, 3, 5, 18, 0, 9, 12, 9, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		src := fuzzProgram(data)
		prog, err := isa.Assemble("fuzz.zasm", src)
		if err != nil {
			t.Fatalf("generated program failed to assemble: %v\n%s", err, src)
		}
		input := []byte("fuzz secret input: 0123456789abcdefghijklmnopqrstuvwxyz")
		interpRun := runOneEngine(t, prog, input, true, false, 10000)
		compiledRun := runOneEngine(t, prog, input, false, false, 10000)
		compareRuns(t, "fuzz", interpRun, compiledRun)
		if t.Failed() {
			t.Logf("program:\n%s", src)
		}
	})
}
