package main

// The taint workload: one operation is one TaintChannel run
// (vm.NewFlat → core.New/Attach → Run → Report) of a paper victim on a
// seeded 16 KiB input, alternating English text and random bytes.

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"github.com/zipchannel/zipchannel/internal/core"
	"github.com/zipchannel/zipchannel/internal/corpus"
	"github.com/zipchannel/zipchannel/internal/isa"
	"github.com/zipchannel/zipchannel/internal/victims"
	"github.com/zipchannel/zipchannel/internal/vm"
)

const (
	taintInputLen = 16 << 10
	// taintPool is how many inputs of each kind a run cycles through.
	taintPool = 4
	// warmLen is the input length of the set-up run that compiles each
	// victim before timing.
	warmLen = 1 << 10
)

// site is one gadget: its kind and the victim instruction it sits at.
type site struct {
	kind core.GadgetKind
	pc   int
}

// taintVictim is a paper victim with the gadget sites TaintChannel must
// report for it. They are the sites the E1 (zlib INSERT_STRING), E2
// (ncompress htab probe), E3 (bzip2 ftab), E5 (AES T-table) and E6
// (memcpy) experiments find.
type taintVictim struct {
	name  string
	build func() *isa.Program
	sites func(input []byte) []site
}

func fixedSites(s ...site) func([]byte) []site { return func([]byte) []site { return s } }

var taintVictims = []taintVictim{
	{"zlib", victims.ZlibInsertString, fixedSites(site{core.DataFlow, 18})},
	{"lzw", victims.LZWHashProbe, fixedSites(site{core.DataFlow, 13}, site{core.ControlFlow, 18}, site{core.DataFlow, 19})},
	{"bzip2", func() *isa.Program { return victims.BzipFtab(victims.BzipFtabOptions{FtabPad: 20}) },
		fixedSites(site{core.DataFlow, 21})},
	{"aes", victims.AESFirstRound, fixedSites(site{core.DataFlow, 8})},
	// memcpy branches on n%8 (pc 8), then loops on n: the word loop's
	// bound check (pc 11) when n%8 == 0, else the byte loop's (pc 18).
	{"memcpy", victims.Memcpy, func(in []byte) []site {
		if in[0]%8 == 0 {
			return []site{{core.ControlFlow, 8}, {core.ControlFlow, 11}}
		}
		return []site{{core.ControlFlow, 8}, {core.ControlFlow, 18}}
	}},
}

type taintInst struct {
	progs  []*isa.Program // parallel to taintVictims
	inputs [2][][]byte    // [0] English text, [1] random bytes
	next   int            // index of the next operation
	// decodeUS and compileMS are set up with --trace 1 only.
	decodeUS, compileMS []float64
}

func setupTaint(seed int64, trace bool) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	t := &taintInst{}
	for i := 0; i < taintPool; i++ {
		t.inputs[0] = append(t.inputs[0], corpus.EnglishText(rng, taintInputLen))
		rnd := make([]byte, taintInputLen)
		rng.Read(rnd)
		t.inputs[1] = append(t.inputs[1], rnd)
	}
	for _, v := range taintVictims {
		// A fresh program compiles on its first Run: do that here, and
		// with --trace 1 time the decode and the compile.
		prog := v.build()
		t0 := time.Now()
		m, err := vm.NewFlat(prog)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		decode := time.Since(t0)
		warm := t.inputs[0][0][:warmLen]
		first, err := runPlain(m, warm)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		if _, _, err := analyze(prog, warm); err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		if trace {
			m, _ := vm.NewFlat(prog)
			steady, err := runPlain(m, warm)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", v.name, err)
			}
			t.decodeUS = append(t.decodeUS, float64(decode.Nanoseconds())/1e3)
			t.compileMS = append(t.compileMS, ms(first-steady))
		}
		t.progs = append(t.progs, prog)
	}
	return t, nil
}

func (t *taintInst) close() {}

func runPlain(m *vm.VM, input []byte) (time.Duration, error) {
	m.SetInput(input)
	t0 := time.Now()
	err := m.Run()
	return time.Since(t0), err
}

// taintTimes splits one TaintChannel run by stage; read is how many
// input bytes the victim consumed.
type taintTimes struct {
	total, run, report time.Duration
	read               int
}

// analyze is one TaintChannel run.
func analyze(prog *isa.Program, input []byte) (*core.Report, taintTimes, error) {
	var tt taintTimes
	t0 := time.Now()
	m, err := vm.NewFlat(prog)
	if err != nil {
		return nil, tt, err
	}
	m.SetInput(input)
	a := core.New(core.Config{})
	a.Attach(m)
	t1 := time.Now()
	if err := m.Run(); err != nil {
		return nil, tt, err
	}
	t2 := time.Now()
	rep := a.Report(prog.Name)
	t3 := time.Now()
	tt = taintTimes{total: t3.Sub(t0), run: t2.Sub(t1), report: t3.Sub(t2), read: m.InputPos()}
	return rep, tt, nil
}

// taintOp is one scheduled operation: victims cycle fastest, then the
// input kind, then the pool entry.
func (t *taintInst) op() (int, []byte) {
	i := t.next
	t.next++
	nv := len(taintVictims)
	return i % nv, t.inputs[(i/nv)%2][(i/(2*nv))%taintPool]
}

// cycle is one pass over every victim and both input kinds; a measured
// round is one cycle, so the victim mix is the same in every run.
func (t *taintInst) cycle() int { return 2 * len(taintVictims) }

// check compares a report's gadget sites with the expected ones and
// returns the equal and total indicator bits: one bit per site that is
// expected or found.
func check(v taintVictim, input []byte, rep *core.Report) (int64, int64) {
	want := v.sites(input)
	var got []site
	for _, f := range rep.Findings {
		got = append(got, site{f.Kind, f.PC})
	}
	union := append(slices.Clone(want), got...)
	slices.SortFunc(union, func(a, b site) int {
		if a.kind != b.kind {
			return int(a.kind) - int(b.kind)
		}
		return a.pc - b.pc
	})
	union = slices.Compact(union)
	eq := int64(0)
	for _, s := range union {
		if slices.Contains(want, s) == slices.Contains(got, s) {
			eq++
		}
	}
	return eq, int64(len(union))
}

type taintTally struct {
	ops, failed       int
	inBytes           int64
	bitsOK, bitsTotal int64
	lat               []float64 // ms per run
	busy              time.Duration
}

func (t *taintTally) add(o *taintTally) {
	t.ops += o.ops
	t.failed += o.failed
	t.inBytes += o.inBytes
	t.bitsOK += o.bitsOK
	t.bitsTotal += o.bitsTotal
	t.lat = append(t.lat, o.lat...)
	t.busy += o.busy
}

// runOne runs and checks the next operation.
func (t *taintInst) runOne(tt *taintTally) (int, []byte, *core.Report, taintTimes, error) {
	vi, input := t.op()
	rep, times, err := analyze(t.progs[vi], input)
	tt.ops++
	if err != nil {
		tt.failed++
		return vi, input, nil, times, err
	}
	eq, total := check(taintVictims[vi], input, rep)
	tt.bitsOK += eq
	tt.bitsTotal += total
	if eq != total {
		tt.failed++
	}
	tt.inBytes += int64(times.read)
	tt.lat = append(tt.lat, ms(times.total))
	tt.busy += times.total
	return vi, input, rep, times, nil
}

// cycleOnce runs one cycle, every victim on both input kinds, and
// passes each checked run to each when it is set.
func (t *taintInst) cycleOnce(each func(vi int, input []byte, rep *core.Report, times taintTimes)) (taintTally, time.Duration) {
	var tt taintTally
	start := time.Now()
	for k := 0; k < t.cycle(); k++ {
		vi, input, rep, times, err := t.runOne(&tt)
		if err == nil && each != nil {
			each(vi, input, rep, times)
		}
	}
	return tt, time.Since(start)
}

func (t *taintInst) measure(o opts) (*outcome, error) {
	var rounds []taintTally
	var secs []float64
	kept, steal := steadyRounds(o.dur, func() {
		tt, elapsed := t.cycleOnce(nil)
		rounds = append(rounds, tt)
		secs = append(secs, elapsed.Seconds())
	})
	oc := newOutcome()
	for _, r := range rounds {
		oc.attempted += r.ops
		oc.failed += r.failed
	}
	var k taintTally
	var cycleMS []float64
	sec := 0.0
	for _, i := range kept {
		k.add(&rounds[i])
		cycleMS = append(cycleMS, mean(rounds[i].lat))
		sec += secs[i]
	}
	oc.values["rps"] = float64(k.ops-k.failed) / sec
	oc.values["kib_s"] = float64(k.inBytes) / 1024 / sec
	// Run times span four orders of magnitude between victims, and the
	// median run sits on the edge between bzip2's text and random
	// inputs; the median over cycles of the mean run time is steady.
	oc.values["p50_ms"] = median(cycleMS)
	oc.values["bit_acc"] = ratio(float64(k.bitsOK), float64(k.bitsTotal))
	oc.steal = steal
	oc.samples["rounds_run"] = len(rounds)
	oc.samples["rounds_kept"] = len(kept)
	oc.samples["latency_samples"] = len(k.lat)
	return oc, nil
}

// ladder times the stages of each run and, on the same input, the bare
// uninstrumented VM. Traced cycles alternate with plain ones, which give
// the tracing overhead.
func (t *taintInst) ladder(o opts) (*outcome, error) {
	oc := newOutcome()
	v := oc.values
	nv := len(taintVictims)
	coreMS := make([][]float64, nv)
	vmMS := make([][]float64, nv)
	var reportUS []float64
	var instr, taintOps, shadow, gadgets, allocs float64
	var plainErr error
	each := func(vi int, input []byte, rep *core.Report, times taintTimes) {
		coreMS[vi] = append(coreMS[vi], ms(times.run))
		reportUS = append(reportUS, float64(times.report.Nanoseconds())/1e3)
		instr += float64(rep.InstrCount)
		taintOps += float64(rep.TaintOps)
		gadgets += float64(len(rep.Findings))
		// A second instrumented run of the same input gives the shadow
		// size and the allocation of one run, outside the timed stages.
		m0 := memNow()
		m, err := vm.NewFlat(t.progs[vi])
		if err == nil {
			m.SetInput(input)
			a := core.New(core.Config{})
			a.Attach(m)
			err = m.Run()
			a.Report(t.progs[vi].Name)
			shadow += float64(a.LiveShadowBytes())
		}
		allocs += float64(memNow().since(m0).bytes)
		if err == nil {
			m, _ = vm.NewFlat(t.progs[vi])
			var d time.Duration
			d, err = runPlain(m, input)
			vmMS[vi] = append(vmMS[vi], ms(d))
		}
		if err != nil && plainErr == nil {
			plainErr = fmt.Errorf("%s: %w", taintVictims[vi].name, err)
		}
	}
	var base, traced taintTally
	baseSec := 0.0
	for start := time.Now(); time.Since(start) < o.dur; {
		b, elapsed := t.cycleOnce(nil)
		base.add(&b)
		baseSec += elapsed.Seconds()
		tr, _ := t.cycleOnce(each)
		traced.add(&tr)
	}
	if plainErr != nil {
		oc.problems = append(oc.problems, plainErr.Error())
	}
	n := float64(traced.ops - traced.failed)
	for vi, tv := range taintVictims {
		cm, vmm := median(coreMS[vi]), median(vmMS[vi])
		v["core.run_ms."+tv.name] = cm
		v["vm.run_ms."+tv.name] = vmm
		v["core.overhead_x."+tv.name] = ratio(cm, vmm)
	}
	v["core.report_us"] = median(reportUS)
	v["p99_ms"] = quantile(traced.lat, tailQ(len(traced.lat)))
	v["vm.instructions"] = ratio(instr, n)
	v["core.taint_ops"] = ratio(taintOps, n)
	v["core.shadow_bytes"] = ratio(shadow, n)
	v["core.gadgets"] = ratio(gadgets, n)
	v["taint.alloc_b_per_run"] = ratio(allocs, n)
	v["vm.decode_us"] = mean(t.decodeUS)
	v["vm.compile_ms"] = mean(t.compileMS)
	v["trace.overhead_pct"] = 100 * (ratio(float64(base.ops)/baseSec, float64(traced.ops)/traced.busy.Seconds()) - 1)

	oc.attempted = base.ops + traced.ops
	oc.failed = base.failed + traced.failed
	oc.samples["baseline_ops"] = base.ops
	oc.samples["traced_ops"] = traced.ops
	return oc, nil
}
