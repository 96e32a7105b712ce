package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"
)

// testSpec is the benchmark definition as seen from this directory.
const testSpec = "../BENCHMARK.json"

// TestSmoke runs every workload for a tiny length, end to end and
// traced, and checks that it is correct and reports every metric.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				o := opts{seed: 3, dur: 300 * time.Millisecond, trace: trace}
				oc, err := run(workloads[name], o)
				if err != nil {
					t.Fatal(err)
				}
				want := sp.EndToEnd
				if trace {
					want = sp.PerLayer
				}
				res, err := assemble(oc, want, trace)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d, correct %v, problems %v", res.Attempted, res.Failed, res.Correct, oc.problems)
				}
				for _, m := range want {
					if v := res.Metrics[m.Name].Value; !trace && v <= 0 {
						t.Errorf("%s = %v, want > 0", m.Name, v)
					}
				}
			})
		}
	}
}

// TestInputsArePureFunctionOfSeed checks that every workload's generated
// requests and inputs depend on the seed and nothing else.
func TestInputsArePureFunctionOfSeed(t *testing.T) {
	serveSeq := func(seed int64, cold bool) string {
		d, err := buildServeData(seed, cold)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for c := 0; c < serveClients; c++ {
			g := newGen(d, seed, c)
			for i := 0; i < 500; i++ {
				for _, r := range g.next().reqs {
					fmt.Fprintf(h, "%s %s %x %x\n", r.method, r.path, r.body, r.want)
				}
			}
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	taintSeq := func(seed int64) string {
		inst, err := setupTaint(seed, false)
		if err != nil {
			t.Fatal(err)
		}
		ti := inst.(*taintInst)
		h := sha256.New()
		for i := 0; i < 4*ti.cycle(); i++ {
			vi, in := ti.op()
			fmt.Fprintf(h, "%d %x\n", vi, in)
		}
		return fmt.Sprintf("%x", h.Sum(nil))
	}
	sgxSeq := func(seed int64) string {
		inst, err := setupSGX(seed, false)
		if err != nil {
			t.Fatal(err)
		}
		s := inst.(*sgxInst)
		return fmt.Sprintf("%x", sha256.Sum256(bytes.Join([][]byte{s.secret(), s.secret()}, nil)))
	}
	gens := map[string]func(int64) string{
		"serve-hot":  func(seed int64) string { return serveSeq(seed, false) },
		"serve-cold": func(seed int64) string { return serveSeq(seed, true) },
		"taint":      taintSeq,
		"sgx":        sgxSeq,
	}
	for name, f := range gens {
		if a, b := f(7), f(7); a != b {
			t.Errorf("%s: seed 7 gave two sequences", name)
		}
		if a, b := f(7), f(8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
	}
}

// TestServeReplyDigest checks that the replies to a serve workload's
// first requests, sent one at a time, are a pure function of the seed.
func TestServeReplyDigest(t *testing.T) {
	digest := func(seed int64, cold bool) string {
		inst, err := setupServe(seed, cold, false)
		if err != nil {
			t.Fatal(err)
		}
		defer inst.close()
		s := inst.(*serveInst)
		tl := tally{digest: sha256.New()}
		for i := 0; i < 150; i++ {
			runOp(s.gens[0], s.main.clients[0], &tl, false)
		}
		s.flush(&tl)
		if tl.failed != 0 {
			t.Fatalf("%d of %d operations failed", tl.failed, tl.ops)
		}
		return fmt.Sprintf("%x", tl.digest.Sum(nil))
	}
	for _, cold := range []bool{false, true} {
		a, b, c := digest(4, cold), digest(4, cold), digest(5, cold)
		if a != b {
			t.Errorf("cold=%v: seed 4 gave two reply digests", cold)
		}
		if a == c {
			t.Errorf("cold=%v: seeds 4 and 5 gave the same reply digest", cold)
		}
	}
}

// TestWrongOutputFails checks that the output checks catch a wrong reply
// and a wrong gadget report.
func TestWrongOutputFails(t *testing.T) {
	if eq, total := bitsEqual([]byte{0xff, 0x00}, []byte{0xfe}); eq != 7 || total != 16 {
		t.Errorf("bitsEqual = %d/%d, want 7/16", eq, total)
	}
	inst, err := setupTaint(1, false)
	if err != nil {
		t.Fatal(err)
	}
	ti := inst.(*taintInst)
	rep, _, err := analyze(ti.progs[0], ti.inputs[0][0])
	if err != nil {
		t.Fatal(err)
	}
	if eq, total := check(taintVictims[0], ti.inputs[0][0], rep); eq != total {
		t.Fatalf("zlib report does not match its sites: %d/%d", eq, total)
	}
	rep.Findings = rep.Findings[:0]
	if eq, total := check(taintVictims[0], ti.inputs[0][0], rep); eq == total {
		t.Fatal("an empty report passed the site check")
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	sp, err := loadSpec(testSpec)
	if err != nil {
		t.Fatal(err)
	}
	a := record{Stamp: stamp{Host: host{CPUModel: "a", NumCPU: 2, GOMAXPROCS: 2}, Workload: "taint"},
		Result: result{Metrics: map[string]metric{"rps": {Value: 10, Unit: "1/s"}}}}
	b := a
	b.Result = result{Metrics: map[string]metric{"rps": {Value: 5, Unit: "1/s"}}}
	var out strings.Builder
	if err := compare(a, b, sp, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "WORSE") {
		t.Errorf("halved rps not flagged:\n%s", out.String())
	}
	b.Stamp.Host.GOMAXPROCS = 1
	if err := compare(a, b, sp, &out); err == nil {
		t.Error("compare accepted results from different hosts")
	}
}
