package zipchannel

import (
	"fmt"
	"time"

	"github.com/zipchannel/zipchannel/internal/isa"
	"github.com/zipchannel/zipchannel/internal/recovery"
	"github.com/zipchannel/zipchannel/internal/sgx"
	"github.com/zipchannel/zipchannel/internal/victims"
)

// PageOnlyAttack is the controlled-channel-only baseline (Xu et al.,
// §VII-C): it single-steps the enclave exactly like the full attack but
// uses nothing beyond the masked page-fault addresses — no Prime+Probe,
// no CAT, no frame selection. SGX hides the low 12 address bits, so each
// iteration constrains j to a 1024-value window (vs the full attack's
// 16), recovering only the top bits of each byte. This is the gap §V-C's
// techniques close.
func PageOnlyAttack(input []byte, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	start := time.Now()

	prog := victimProgram(victimKey{"bzip2", cfg.FtabPad}, func() *isa.Program {
		return victims.BzipFtab(victims.BzipFtabOptions{FtabPad: cfg.FtabPad})
	})
	alloc := sgx.NewFrameAllocator(0x1000, cfg.Frames)
	enc, err := sgx.NewEnclave(prog, alloc)
	if err != nil {
		return nil, fmt.Errorf("zipchannel: %w", err)
	}
	enc.VM.SetInput(input)
	cfg.Obs.SetSimClock(func() uint64 { return enc.VM.Steps })
	enc.AttachObs(cfg.Obs)
	enc.VM.AttachObs(cfg.Obs)
	iterations := cfg.Obs.Counter("attack.iterations")

	st := sgx.NewStepper(enc, "quadrant", "block", "ftab")
	st.AttachObs(cfg.Obs)
	ok, err := st.Start()
	if err != nil {
		return nil, fmt.Errorf("zipchannel: start: %w", err)
	}

	ftab := prog.MustSymbol("ftab")
	res := &Result{}
	var trace recovery.BzipTrace
	for ok {
		var pageVA uint64
		done, err := st.Step(func(page uint64) { pageVA = page }, func() {
			trace = append(trace, int64(pageVA)-int64(ftab.Addr))
			res.Iterations++
			iterations.Inc()
		})
		if err != nil {
			return nil, fmt.Errorf("zipchannel: step: %w", err)
		}
		if done {
			break
		}
	}

	rec, err := recovery.RecoverBzip(trace, len(input), sgx.PageSize)
	if err != nil {
		return nil, fmt.Errorf("zipchannel: recovery: %w", err)
	}
	res.Recovered = rec.Block
	res.ByteAcc, res.BitAcc = rec.Accuracy(input)
	res.KnownBytes = rec.KnownCount()
	res.CorrectedBytes = rec.Corrected
	res.SimSteps = enc.VM.Steps
	res.Elapsed = time.Since(start)
	cfg.Obs.Gauge("attack.byte_acc").Set(res.ByteAcc)
	cfg.Obs.Gauge("attack.bit_acc").Set(res.BitAcc)
	return res, nil
}
