package experiments

import (
	"fmt"
	"math/rand"

	"github.com/zipchannel/zipchannel/internal/obs"
	"github.com/zipchannel/zipchannel/internal/par"
	"github.com/zipchannel/zipchannel/internal/zipchannel"
)

// AllGadgetsSGX regenerates E13, our extension of the paper's §V attack
// to the other two surveyed gadgets: §IV-E proves that zlib and
// ncompress leak through the cache exactly like bzip2, and the Fig 5
// stepper over their two-array gadget loops turns those survey results
// into end-to-end extractions with the same §V machinery.
//
// The four extractions are independent attack repetitions, so they fan
// out across ctx.Parallelism workers. Each runs against a private
// registry; the registries merge into ctx.Obs in table order, so the
// combined telemetry matches a sequential shared-registry run.
func AllGadgetsSGX(ctx *Ctx) (*Result, error) {
	quick := ctx.Quick
	n := 2048
	if quick {
		n = 512
	}
	res := newResult("E13", "the §V attack generalized to all three surveyed gadgets")
	cfgSeed := ctx.taskSeed(8, "cfg")
	res.Seed = cfgSeed
	res.addf("%-22s %-10s %-10s %s", "victim gadget", "bits ok", "bytes ok", "notes")

	random := randomInput(n, ctx.taskSeed(61, "random"))
	rng := rand.New(rand.NewSource(ctx.taskSeed(62, "lower")))
	lower := make([]byte, n)
	for i := range lower {
		lower[i] = byte('a' + rng.Intn(26))
	}

	newCfg := func(reg *obs.Registry) zipchannel.Config {
		cfg := zipchannel.DefaultConfig()
		cfg.Seed = cfgSeed
		cfg.Obs = reg
		return cfg
	}
	attacks := []struct {
		run func(reg *obs.Registry) (*zipchannel.Result, error)
	}{
		// bzip2: the paper's own end-to-end target, for reference.
		{func(reg *obs.Registry) (*zipchannel.Result, error) {
			return zipchannel.Attack(random, newCfg(reg))
		}},
		// ncompress: full recovery via dictionary replay.
		{func(reg *obs.Registry) (*zipchannel.Result, error) {
			return zipchannel.LZWAttack(random, newCfg(reg))
		}},
		// zlib: charset-assisted recovery of lowercase text, plus the raw
		// 2-bits-per-byte floor on random data.
		{func(reg *obs.Registry) (*zipchannel.Result, error) {
			return zipchannel.ZlibAttack(lower, 0x60, true, newCfg(reg))
		}},
		{func(reg *obs.Registry) (*zipchannel.Result, error) {
			return zipchannel.ZlibAttack(random, 0, false, newCfg(reg))
		}},
	}
	results := make([]*zipchannel.Result, len(attacks))
	regs := make([]*obs.Registry, len(attacks))
	err := par.ForEach(ctx.Parallelism, len(attacks), func(i int) error {
		regs[i] = obs.NewRegistry()
		r, err := attacks[i].run(regs[i])
		results[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, reg := range regs {
		ctx.Obs.Merge(reg)
	}

	bz, lz, zlCharset, zlRaw := results[0], results[1], results[2], results[3]
	res.addf("%-22s %8.2f%% %8.2f%%  random data (paper's §V)", "bzip2 ftab[j]++", 100*bz.BitAcc, 100*bz.ByteAcc)
	res.Metrics["bzipBitAcc"] = bz.BitAcc
	res.addf("%-22s %8.2f%% %8.2f%%  random data, 8-candidate first byte", "ncompress htab[hp]", 100*lz.BitAcc, 100*lz.ByteAcc)
	res.Metrics["lzwByteAcc"] = lz.ByteAcc
	res.addf("%-22s %8.2f%% %8.2f%%  lowercase text, charset known (§IV-B)", "zlib head[ins_h]", 100*zlCharset.BitAcc, 100*zlCharset.ByteAcc)
	res.Metrics["zlibCharsetBitAcc"] = zlCharset.BitAcc
	res.addf("%-22s %8.2f%% %8s  random data, no charset (25%% direct)", "zlib head[ins_h]", 100*zlRaw.BitAcc, "-")
	res.Metrics["zlibRawBitAcc"] = zlRaw.BitAcc

	if bz.BitAcc < 0.98 || lz.ByteAcc < 0.97 || zlCharset.BitAcc < 0.9 {
		return nil, fmt.Errorf("allgadgets: accuracy below shape: bzip=%.3f lzw=%.3f zlib=%.3f",
			bz.BitAcc, lz.ByteAcc, zlCharset.BitAcc)
	}
	if zlRaw.BitAcc < 0.20 || zlRaw.BitAcc > 0.30 {
		return nil, fmt.Errorf("allgadgets: zlib raw leak %.3f outside the ~25%% band", zlRaw.BitAcc)
	}
	return res, nil
}
