package victims_test

import (
	"bytes"
	"slices"
	"testing"

	"github.com/zipchannel/zipchannel/internal/isa"
	"github.com/zipchannel/zipchannel/internal/victims"
	"github.com/zipchannel/zipchannel/internal/vm"
)

// access is one data-memory access the VM performed.
type access struct {
	store bool
	addr  uint64
	width int
}

// run executes prog on input with every load and store recorded, and
// returns the halted machine and its access trace in program order.
func run(t *testing.T, prog *isa.Program, input []byte) (*vm.VM, []access) {
	t.Helper()
	v, err := vm.NewFlat(prog)
	if err != nil {
		t.Fatal(err)
	}
	var trace []access
	v.Hooks.OnLoad = func(_ *vm.VM, _ *isa.Instr, addr uint64, width int, _ uint64) {
		trace = append(trace, access{addr: addr, width: width})
	}
	v.Hooks.OnStore = func(_ *vm.VM, _ *isa.Instr, addr uint64, width int, _ uint64) {
		trace = append(trace, access{store: true, addr: addr, width: width})
	}
	v.SetInput(input)
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if !v.Halted {
		t.Fatal("program did not halt")
	}
	return v, trace
}

// within returns the accesses of the given kind and width that fall inside
// sym, in program order.
func within(trace []access, sym isa.Symbol, store bool, width int) []access {
	var out []access
	for _, a := range trace {
		if a.store == store && a.width == width && a.addr >= sym.Addr && a.addr < sym.Addr+sym.Size {
			out = append(out, a)
		}
	}
	return out
}

func readSym(t *testing.T, v *vm.VM, sym isa.Symbol, n int) []byte {
	t.Helper()
	b, err := v.Mem.(*vm.FlatMemory).ReadBytes(sym.Addr, n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Every program the CLI offers assembles, consumes its input and halts.
func TestAllVictimsHalt(t *testing.T) {
	all := victims.All()
	names := make([]string, 0, len(all))
	for name := range all {
		names = append(names, name)
	}
	slices.Sort(names)
	input := []byte{16, 'c', 'o', 'm', 'p', 'r', 'e', 's', 's', 'i', 'o', 'n', '!', '!', '!', '!', '!'}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			v, _ := run(t, all[name], input)
			if v.InputPos() == 0 {
				t.Error("program consumed no input")
			}
		})
	}
}

// The E5 target's sixteen Te0 lookups index entry pt[i]^key[i], in order:
// the Osvik et al. gadget's leaked values.
func TestFirstRoundIndicesMatchTrace(t *testing.T) {
	prog := victims.AESFirstRound()
	pt := []byte("the secret block")
	v, trace := run(t, prog, pt)
	te0 := prog.MustSymbol("te0")
	key := readSym(t, v, prog.MustSymbol("key"), 16)
	lookups := within(trace, te0, false, 4)
	if len(lookups) != 16 {
		t.Fatalf("performed %d Te0 lookups, want 16", len(lookups))
	}
	for i, a := range lookups {
		if got, want := (a.addr-te0.Addr)/4, uint64(pt[i]^key[i]); got != want {
			t.Errorf("lookup %d: Te0 index %#x, want pt^key = %#x", i, got, want)
		}
	}
}

// Observing only the cache line of each Te0 lookup (the top four index
// bits: sixteen 4-byte entries per 64-byte line) and knowing the key
// recovers the high nibble of every plaintext byte: the §III-B check that
// the gadget is exploitable at cache-line granularity.
func TestCacheLineLeakRecoversPlaintextNibbles(t *testing.T) {
	prog := victims.AESFirstRound()
	pt := []byte("attack at dawn!!")
	v, trace := run(t, prog, pt)
	te0 := prog.MustSymbol("te0")
	if te0.Addr%64 != 0 {
		t.Fatalf("te0 at %#x is not cache-line aligned", te0.Addr)
	}
	key := readSym(t, v, prog.MustSymbol("key"), 16)
	lookups := within(trace, te0, false, 4)
	if len(lookups) != 16 {
		t.Fatalf("performed %d Te0 lookups, want 16", len(lookups))
	}
	for i, a := range lookups {
		line := byte((a.addr - te0.Addr) / 64)
		if got, want := (line<<4)^(key[i]&0xf0), pt[i]&0xf0; got != want {
			t.Errorf("byte %d: recovered high nibble %#x, want %#x", i, got, want)
		}
	}
}

// zlib's head store lands at head[ins_h] with ins_h the rolling 15-bit
// hash of Listing 1, once per input position but the last two.
func TestZlibHeadStoreIndexIsRollingHash(t *testing.T) {
	prog := victims.ZlibInsertString()
	in := []byte("INSERT_STRING hashes three bytes")
	_, trace := run(t, prog, in)
	head := prog.MustSymbol("head")
	stores := within(trace, head, true, 2)
	if len(stores) != len(in)-2 {
		t.Fatalf("got %d head stores, want %d", len(stores), len(in)-2)
	}
	h := uint64(in[0])<<5 ^ uint64(in[1])
	for i, a := range stores {
		h = (h<<5 ^ uint64(in[i+2])) & 0x7fff
		if got := (a.addr - head.Addr) / 2; got != h {
			t.Errorf("store %d: head index %#x, want %#x", i, got, h)
		}
	}
}

// ncompress probes htab[(c<<9)^ent]; while every (ent, c) pair is new, ent
// is the previous byte, so each probe reveals c given the byte before it.
func TestLZWProbeIndexIsCShl9XorEnt(t *testing.T) {
	prog := victims.LZWHashProbe()
	in := []byte("lzw probes!")
	_, trace := run(t, prog, in)
	htab := prog.MustSymbol("htab")
	probes := within(trace, htab, false, 8)
	if len(probes) != len(in)-1 {
		t.Fatalf("got %d htab probes, want %d", len(probes), len(in)-1)
	}
	for i, a := range probes {
		want := uint64(in[i+1])<<9 ^ uint64(in[i])
		if got := (a.addr - htab.Addr) / 8; got != want {
			t.Errorf("probe %d: htab index %#x, want %#x", i, got, want)
		}
	}
}

// bzipHistogram is mainSort's two-byte frequency table of Listing 3,
// computed directly: j walks the block backwards with block[0] wrapping
// in as the initial high byte.
func bzipHistogram(block []byte) map[uint64]uint32 {
	h := map[uint64]uint32{}
	j := uint64(block[0]) << 8
	for i := len(block) - 1; i >= 0; i-- {
		j = j>>8 | uint64(block[i])<<8
		h[j]++
	}
	return h
}

// ftabCounts reads every non-zero ftab counter after a run.
func ftabCounts(t *testing.T, v *vm.VM, ftab isa.Symbol) map[uint64]uint32 {
	t.Helper()
	raw := readSym(t, v, ftab, int(ftab.Size))
	got := map[uint64]uint32{}
	for k := 0; k+4 <= len(raw); k += 4 {
		if c := uint32(raw[k]) | uint32(raw[k+1])<<8 | uint32(raw[k+2])<<16 | uint32(raw[k+3])<<24; c != 0 {
			got[uint64(k/4)] = c
		}
	}
	return got
}

// Both the leaky bzip2 histogram and its §VIII oblivious rewrite build
// mainSort's frequency table; only how they touch memory differs.
func TestBzipFtabCountsMatchHistogram(t *testing.T) {
	block := []byte("banana bandana")
	want := bzipHistogram(block)
	for _, prog := range []*isa.Program{
		victims.BzipFtab(victims.BzipFtabOptions{FtabPad: 20}),
		victims.BzipFtabOblivious(victims.BzipFtabOptions{FtabPad: 20}),
	} {
		v, _ := run(t, prog, block)
		got := ftabCounts(t, v, prog.MustSymbol("ftab"))
		if len(got) != len(want) {
			t.Errorf("%s: %d non-zero ftab entries, want %d", prog.Name, len(got), len(want))
		}
		for j, n := range want {
			if got[j] != n {
				t.Errorf("%s: ftab[%#x] = %d, want %d", prog.Name, j, got[j], n)
			}
		}
	}
}

// The paper's configuration leaves ftab's base off a cache-line boundary
// (the §IV-D off-by-one ambiguity); the aligned variant puts it on one.
func TestBzipFtabAlignment(t *testing.T) {
	if a := victims.BzipFtab(victims.BzipFtabOptions{FtabPad: 20}).MustSymbol("ftab").Addr; a%64 == 0 {
		t.Errorf("paper configuration: ftab at %#x is cache-line aligned", a)
	}
	if a := victims.BzipFtabAligned().MustSymbol("ftab").Addr; a%64 != 0 {
		t.Errorf("aligned variant: ftab at %#x is not cache-line aligned", a)
	}
}

// lines returns the cache lines of sym touched by trace, in order.
func lines(trace []access, sym isa.Symbol) []uint64 {
	var out []uint64
	for _, a := range trace {
		if a.addr >= sym.Addr && a.addr < sym.Addr+sym.Size {
			out = append(out, a.addr/64)
		}
	}
	return out
}

// With ftab on a cache-line boundary, the oblivious histogram's ftab
// cache-line sequence is the same for inputs of equal length, where the
// leaky one's is not.
func TestBzipObliviousFootprintIsInputIndependent(t *testing.T) {
	aligned := victims.BzipFtabOptions{FtabPad: 64, Align: 64}
	a, b := []byte("secret"), []byte("public")
	for _, tc := range []struct {
		prog *isa.Program
		same bool
	}{
		{victims.BzipFtabOblivious(aligned), true},
		{victims.BzipFtab(aligned), false},
	} {
		ftab := tc.prog.MustSymbol("ftab")
		_, ta := run(t, tc.prog, a)
		_, tb := run(t, tc.prog, b)
		if same := slices.Equal(lines(ta, ftab), lines(tb, ftab)); same != tc.same {
			t.Errorf("%s: equal ftab line sequences = %v, want %v", tc.prog.Name, same, tc.same)
		}
	}
}

// memcpy copies buf[1:n+1] to dst, in 8-byte stores when n is a multiple
// of 8 and in 1-byte stores otherwise: the size leaks through the path.
func TestMemcpyPathFollowsSize(t *testing.T) {
	prog := victims.Memcpy()
	dst := prog.MustSymbol("dst")
	for _, tc := range []struct {
		n     byte
		width int
	}{{16, 8}, {13, 1}} {
		in := make([]byte, int(tc.n)+1)
		in[0] = tc.n
		for i := 1; i < len(in); i++ {
			in[i] = byte(i * 7)
		}
		v, trace := run(t, prog, in)
		if got := readSym(t, v, dst, int(tc.n)); !bytes.Equal(got, in[1:]) {
			t.Errorf("n=%d: dst = %x, want %x", tc.n, got, in[1:])
		}
		stores := within(trace, dst, true, tc.width)
		if want := int(tc.n) / tc.width; len(stores) != want {
			t.Errorf("n=%d: %d stores of width %d, want %d", tc.n, len(stores), tc.width, want)
		}
	}
}

// The negative control's access trace depends only on the input length,
// and it still computes over the data (acc is the byte sum).
func TestConstantTimeTraceIsInputIndependent(t *testing.T) {
	prog := victims.ConstantTime()
	a, b := []byte("first input"), []byte("other bytes")
	va, ta := run(t, prog, a)
	_, tb := run(t, prog, b)
	if !slices.Equal(ta, tb) {
		t.Error("access traces differ between equal-length inputs")
	}
	var sum uint64
	for _, c := range a {
		sum += uint64(c)
	}
	acc := readSym(t, va, prog.MustSymbol("acc"), 8)
	var got uint64
	for i := 7; i >= 0; i-- {
		got = got<<8 | uint64(acc[i])
	}
	if got != sum {
		t.Errorf("acc = %d, want byte sum %d", got, sum)
	}
}
