package sgx

import (
	"errors"
	"testing"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/isa"
	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/victims"
)

// The victims' gadget rings, in loop order, with their table index.
var (
	bzipRing = []Array{{"quadrant", true}, {"block", false}, {"ftab", true}}
	zlibRing = []Array{{"head", true}, {"window", false}}
	lzwRing  = []Array{{"htab", false}, {"inputbuf", false}}
)

const (
	bzipTable = 2
	zlibTable = 0
	lzwTable  = 0
)

// newEnclave loads prog with input.
func newEnclave(t *testing.T, prog *isa.Program, input []byte) *Enclave {
	t.Helper()
	e, err := NewEnclave(prog, NewFrameAllocator(0x1000, 8192))
	if err != nil {
		t.Fatal(err)
	}
	e.VM.SetInput(input)
	return e
}

// stepAll starts st and steps it to the enclave's halt, returning the
// table page each prime saw.
func stepAll(t *testing.T, st *Stepper, limit int) []uint64 {
	t.Helper()
	ok, err := st.Start()
	if err != nil || !ok {
		t.Fatalf("Start: ok=%v err=%v", ok, err)
	}
	var pages []uint64
	for {
		done, err := st.Step(func(p uint64) { pages = append(pages, p) }, nil)
		if err != nil {
			t.Fatalf("Step %d: %v", len(pages), err)
		}
		if done {
			return pages
		}
		if len(pages) > limit {
			t.Fatal("stepper did not terminate")
		}
	}
}

// The stepper must single-step the whole loop, delivering exactly one
// ftab page per input byte, with the pages matching ground truth.
func TestStepperSingleStepsAllIterations(t *testing.T) {
	prog := victims.BzipFtabAligned()
	input := []byte("The quick brown fox jumps over the lazy dog")
	st := NewStepper(newEnclave(t, prog, input), bzipRing, bzipTable)
	var transitions int
	st.OnTransition = func() { transitions++ }

	n := len(input)
	pages := stepAll(t, st, n+1)
	if len(pages) != n {
		t.Fatalf("observed %d iterations, want %d", len(pages), n)
	}
	// Ground truth: iteration k corresponds to i = n-1-k, j =
	// block[i]<<8 | block[(i+1)%n]; the page is of ftab.Addr + 4j.
	ftab := prog.MustSymbol("ftab")
	for k, page := range pages {
		i := n - 1 - k
		j := uint64(input[i])<<8 | uint64(input[(i+1)%n])
		want := (ftab.Addr + 4*j) &^ (PageSize - 1)
		if page != want {
			t.Errorf("iteration %d: page %#x, want %#x", k, page, want)
		}
	}
	if transitions == 0 {
		t.Error("transition hook never fired")
	}
}

// After single-stepping, the histogram must equal a natively computed one:
// stepping must not corrupt execution.
func TestStepperPreservesSemantics(t *testing.T) {
	prog := victims.BzipFtab(victims.BzipFtabOptions{FtabPad: 20})
	input := []byte("abracadabra")
	e := newEnclave(t, prog, input)
	stepAll(t, NewStepper(e, bzipRing, bzipTable), len(input))
	// Recompute expected histogram.
	n := len(input)
	want := map[uint64]uint64{}
	for i := 0; i < n; i++ {
		j := uint64(input[i])<<8 | uint64(input[(i+1)%n])
		want[j]++
	}
	ftab := prog.MustSymbol("ftab")
	for j, cnt := range want {
		got, err := e.Mem.Load(ftab.Addr+4*j, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got != cnt {
			t.Errorf("ftab[%#x] = %d, want %d", j, got, cnt)
		}
	}
}

// The two-array zlib ring must expose one head-table page per loop
// iteration, matching the ground-truth rolling hash.
func TestStepperSingleStepsZlib(t *testing.T) {
	prog := victims.ZlibInsertString()
	input := []byte("pack my box with five dozen liquor jugs")
	st := NewStepper(newEnclave(t, prog, input), zlibRing, zlibTable)
	var transitions int
	st.OnTransition = func() { transitions++ }
	st.DryTransition()
	if transitions != 1 {
		t.Fatal("DryTransition should fire the hook")
	}

	// Ground-truth hash sequence.
	head := prog.MustSymbol("head")
	h := (uint32(input[0])<<5 ^ uint32(input[1])) & 0x7fff
	var wantPages []uint64
	for i := 0; i+2 < len(input); i++ {
		h = ((h << 5) ^ uint32(input[i+2])) & 0x7fff
		wantPages = append(wantPages, (head.Addr+2*uint64(h))&^(PageSize-1))
	}

	gotPages := stepAll(t, st, len(input))
	if len(gotPages) != len(wantPages) {
		t.Fatalf("observed %d iterations, want %d", len(gotPages), len(wantPages))
	}
	for k := range wantPages {
		if gotPages[k] != wantPages[k] {
			t.Errorf("iteration %d: page %#x, want %#x", k, gotPages[k], wantPages[k])
		}
	}
}

// Fig 5's edge series exist only for the three-array ring, where each
// counts one resume per iteration; a two-array ring registers none.
func TestStepperHopSeries(t *testing.T) {
	input := []byte("The quick brown fox")
	reg := obs.NewRegistry()
	st := NewStepper(newEnclave(t, victims.BzipFtabAligned(), input), bzipRing, bzipTable)
	st.AttachObs(reg)
	stepAll(t, st, len(input)+1)
	st = NewStepper(newEnclave(t, victims.ZlibInsertString(), input), zlibRing, zlibTable)
	st.AttachObs(reg)
	stepAll(t, st, len(input))

	snap := reg.Snapshot()
	iters := snap.Counters["sgx.step.iterations"]
	if iters == 0 || snap.Counters["sgx.step2.iterations"] == 0 {
		t.Fatalf("iterations: three-array %d, two-array %d", iters, snap.Counters["sgx.step2.iterations"])
	}
	for _, edge := range []string{"s0_s1", "s1_s2", "s2_s4"} {
		if got := snap.Counters["sgx.step."+edge]; got != iters {
			t.Errorf("sgx.step.%s = %d, want %d iterations", edge, got, iters)
		}
		if _, ok := snap.Counters["sgx.step2."+edge]; ok {
			t.Errorf("two-array ring registered sgx.step2.%s", edge)
		}
	}
}

// The load-probing lzw ring (htab) must single-step the victim and leave
// its semantics intact.
func TestStepperLZWSemanticsPreserved(t *testing.T) {
	input := []byte("abcabcabc")
	e := newEnclave(t, victims.LZWHashProbe(), input)
	steps := len(stepAll(t, NewStepper(e, lzwRing, lzwTable), len(input)+2))
	if steps != len(input)-1 {
		t.Errorf("stepped %d iterations, want %d (one per byte after the first)", steps, len(input)-1)
	}
	if !e.Halted() {
		t.Error("enclave should have halted")
	}
}

// An input too short to enter the loop halts before the first ring
// access: Start reports it, and stepping it is a protocol error.
func TestStepperEmptyInput(t *testing.T) {
	for _, tc := range []struct {
		name  string
		prog  *isa.Program
		ring  []Array
		table int
		input []byte
	}{
		{"bzip2", victims.BzipFtabAligned(), bzipRing, bzipTable, nil},
		{"zlib", victims.ZlibInsertString(), zlibRing, zlibTable, []byte("ab")}, // never touches head
		{"lzw", victims.LZWHashProbe(), lzwRing, lzwTable, []byte("a")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewStepper(newEnclave(t, tc.prog, tc.input), tc.ring, tc.table)
			ok, err := st.Start()
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Error("a too-short input should halt before the loop")
			}
			if _, err := st.Step(nil, nil); !errors.Is(err, ErrProtocol) {
				t.Errorf("Step without loop entry should be a protocol error, got %v", err)
			}
		})
	}
}

// haltsBeforeTable is a bzip2-shaped loop body that stores quadrant,
// loads block and halts without the ftab access.
const haltsBeforeTable = `
.data block 4096 align=4096
.data quadrant 4096 align=4096
.data ftab 4096 align=4096
main:
  st.2 [quadrant], 0
  ld.1 r3, [block]
  halt
`

// Every stop must be the declared access of the next ring array, and the
// enclave may only halt after an iteration's table access.
func TestStepperProtocolViolations(t *testing.T) {
	text := []byte("pack my box with five dozen liquor jugs")
	for _, tc := range []struct {
		name     string
		prog     *isa.Program
		ring     []Array
		table    int
		start    bool // call Start before the first Step
		startErr bool // Start fails; otherwise the first Step fails
	}{
		{name: "step before start", prog: victims.ZlibInsertString(), ring: zlibRing, table: zlibTable, start: false},
		// head is only stored: declared a load, its store faults where a
		// load was expected.
		{name: "zlib head declared a load", prog: victims.ZlibInsertString(), ring: []Array{{"head", false}, {"window", false}},
			start: true, startErr: true},
		{name: "bzip2 quadrant declared a load", prog: victims.BzipFtabAligned(), ring: []Array{{"quadrant", false}, {"block", false}, {"ftab", true}},
			table: bzipTable, start: true, startErr: true},
		// block keeps read permission, so its load runs and nothing stays
		// revoked: the enclave halts before the ftab access.
		{name: "bzip2 block declared a store", prog: victims.BzipFtabAligned(), ring: []Array{{"quadrant", true}, {"block", true}, {"ftab", true}},
			table: bzipTable, start: true},
		{name: "bzip2 halts before the ftab access", prog: isa.MustAssemble("halts_before_table", haltsBeforeTable), ring: bzipRing,
			table: bzipTable, start: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := NewStepper(newEnclave(t, tc.prog, text), tc.ring, tc.table)
			if tc.start {
				ok, err := st.Start()
				if tc.startErr {
					if !errors.Is(err, ErrProtocol) {
						t.Fatalf("Start = %v, %v; want a protocol error", ok, err)
					}
					return
				}
				if err != nil || !ok {
					t.Fatalf("Start: ok=%v err=%v", ok, err)
				}
			}
			if _, err := st.Step(nil, nil); !errors.Is(err, ErrProtocol) {
				t.Errorf("Step = %v, want a protocol error", err)
			}
		})
	}
}

// The chaos points are part of the shared stepper: injected protect
// failures are retried with extra transition noise, noise storms replay
// the hook, neither changes what the victim exposes, and a flip that
// keeps failing surfaces as an injected error.
func TestStepperRetriesInjectedFaults(t *testing.T) {
	prog := victims.ZlibInsertString()
	input := []byte("pack my box with five dozen liquor jugs")
	clean := stepAll(t, NewStepper(newEnclave(t, prog, input), zlibRing, zlibTable), len(input))

	reg := obs.NewRegistry()
	faults := fault.NewRegistry(1)
	if err := faults.ArmAll("sgx.stepper.protect=error@3,sgx.stepper.transition=latency@4:2"); err != nil {
		t.Fatal(err)
	}
	st := NewStepper(newEnclave(t, prog, input), zlibRing, zlibTable)
	st.AttachObs(reg)
	var transitions int
	st.OnTransition = func() { transitions++ }
	st.FaultProtect = faults.Point("sgx.stepper.protect")
	st.FaultTransition = faults.Point("sgx.stepper.transition")
	faulted := stepAll(t, st, len(input))
	if len(faulted) != len(clean) {
		t.Fatalf("faulted run stepped %d iterations, clean %d", len(faulted), len(clean))
	}
	for k := range clean {
		if faulted[k] != clean[k] {
			t.Errorf("iteration %d: page %#x, clean %#x", k, faulted[k], clean[k])
		}
	}
	snap := reg.Snapshot()
	steps := snap.Counters["sgx.step2.transitions"]
	if retries := snap.Counters["sgx.step2.protect_retries"]; retries == 0 {
		t.Error("no protect retries counted")
	}
	if storms := snap.Counters["sgx.step2.noise_storms"]; storms == 0 || uint64(transitions) != steps+2*storms {
		t.Errorf("%d hook calls for %d transitions and %d storms of 2", transitions, steps, storms)
	}

	faults = fault.NewRegistry(1)
	if err := faults.ArmAll("sgx.stepper.protect=error"); err != nil {
		t.Fatal(err)
	}
	st = NewStepper(newEnclave(t, prog, input), zlibRing, zlibTable)
	st.FaultProtect = faults.Point("sgx.stepper.protect")
	if _, err := st.Start(); !errors.Is(err, fault.ErrInjected) {
		t.Errorf("Start with every flip failing = %v, want an injected error", err)
	}
}
