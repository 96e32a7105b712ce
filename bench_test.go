// Package bench holds the benchmark harness that regenerates every table
// and figure of the paper (one Benchmark per experiment, DESIGN.md §4)
// plus throughput micro-benchmarks for the substrates. Accuracy headline
// numbers are attached to the benchmark output via ReportMetric.
package bench

import (
	"context"
	"math/rand"
	"testing"

	"github.com/zipchannel/zipchannel/internal/cache"
	"github.com/zipchannel/zipchannel/internal/compress/bwt"
	"github.com/zipchannel/zipchannel/internal/compress/codec"
	"github.com/zipchannel/zipchannel/internal/compress/lz77"
	"github.com/zipchannel/zipchannel/internal/compress/lzw"
	"github.com/zipchannel/zipchannel/internal/core"
	"github.com/zipchannel/zipchannel/internal/corpus"
	"github.com/zipchannel/zipchannel/internal/experiments"
	"github.com/zipchannel/zipchannel/internal/isa"
	"github.com/zipchannel/zipchannel/internal/victims"
	"github.com/zipchannel/zipchannel/internal/vm"
	"github.com/zipchannel/zipchannel/internal/zipchannel"
)

// benchExperiment runs a registered experiment's quick variant b.N times
// and reports its headline metrics.
func benchExperiment(b *testing.B, name string, metricKeys ...string) {
	b.Helper()
	r, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	var last map[string]float64
	for i := 0; i < b.N; i++ {
		res, err := r.Run(&experiments.Ctx{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Metrics
	}
	for _, k := range metricKeys {
		b.ReportMetric(last[k], k)
	}
}

// --- One benchmark per paper artifact ---

// BenchmarkFig2ZlibTaint regenerates Fig 2 (E1).
func BenchmarkFig2ZlibTaint(b *testing.B) { benchExperiment(b, "fig2", "gadgets") }

// BenchmarkFig3LZWTaint regenerates Fig 3 (E2).
func BenchmarkFig3LZWTaint(b *testing.B) { benchExperiment(b, "fig3", "gadgets") }

// BenchmarkFig4BzipTaint regenerates Fig 4 (E3).
func BenchmarkFig4BzipTaint(b *testing.B) { benchExperiment(b, "fig4", "gadgets") }

// BenchmarkAESValidation regenerates the §III-B AES check (E5).
func BenchmarkAESValidation(b *testing.B) { benchExperiment(b, "aes", "lookups") }

// BenchmarkMemcpyValidation regenerates the §III-B memcpy check (E6).
func BenchmarkMemcpyValidation(b *testing.B) { benchExperiment(b, "memcpy", "divergingPCs") }

// BenchmarkSurveyRecovery regenerates the §IV survey summary (E4).
func BenchmarkSurveyRecovery(b *testing.B) {
	benchExperiment(b, "survey", "zlibRawBits", "lzwBytes", "bzipBits")
}

// BenchmarkE7SGXAttack regenerates the §V-E headline (E7).
func BenchmarkE7SGXAttack(b *testing.B) { benchExperiment(b, "sgx", "bitAcc") }

// BenchmarkE7Ablations regenerates the CAT/frame-selection ablations (E7a).
func BenchmarkE7Ablations(b *testing.B) {
	benchExperiment(b, "sgx-ablate", "fullBitAcc", "bareBitAcc")
}

// BenchmarkMitigation regenerates the §VIII mitigation evaluation (E11).
func BenchmarkMitigation(b *testing.B) {
	benchExperiment(b, "mitigation", "vulnBitAcc", "mitBitAcc", "overheadX")
}

// BenchmarkFig6ControlFlow regenerates the sorting-path census (E10).
func BenchmarkFig6ControlFlow(b *testing.B) { benchExperiment(b, "fig6", "fallbacks") }

// BenchmarkFig7Fingerprint regenerates the 21-file confusion matrix (E8).
func BenchmarkFig7Fingerprint(b *testing.B) { benchExperiment(b, "fig7", "testAcc", "diagMean") }

// BenchmarkFig8Lipsum regenerates the repetitiveness matrix (E9).
func BenchmarkFig8Lipsum(b *testing.B) { benchExperiment(b, "fig8", "testAcc", "file1Diag") }

// BenchmarkPageStoreAttack regenerates the compressed-page-store oracle
// (E12): recovery accuracy clean and under timer jitter, oracle queries
// per recovered byte, and page-store throughput (pages/sec is wall
// clock, the rest are deterministic).
func BenchmarkPageStoreAttack(b *testing.B) {
	r, ok := experiments.Lookup("pagestore")
	if !ok {
		b.Fatal("pagestore experiment not registered")
	}
	var last map[string]float64
	for i := 0; i < b.N; i++ {
		res, err := r.Run(&experiments.Ctx{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		last = res.Metrics
	}
	for _, k := range []string{"byteAcc", "jitterAcc", "queriesPerByte", "fpAcc"} {
		b.ReportMetric(last[k], k)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(last["pageStores"]*float64(b.N)/secs, "pages/sec")
	}
}

// --- Substrate micro-benchmarks ---

// BenchmarkCacheAccess measures the simulated LLC's access throughput.
func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.Config{})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Int63n(1 << 30))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(1, addrs[i%len(addrs)])
	}
}

// BenchmarkVMExecution measures raw interpreter throughput (instructions
// per op) on the bzip2 gadget.
func BenchmarkVMExecution(b *testing.B) {
	input := make([]byte, 4096)
	rand.New(rand.NewSource(2)).Read(input)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machine, err := vm.NewFlat(victims.BzipFtab(victims.BzipFtabOptions{}))
		if err != nil {
			b.Fatal(err)
		}
		machine.SetInput(input)
		if err := machine.Run(); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(input)))
	}
}

// BenchmarkTaintAnalysis measures TaintChannel's instrumented execution
// (the paper's tool overhead) on the same gadget.
func BenchmarkTaintAnalysis(b *testing.B) {
	op := taintRun(b)
	b.ReportAllocs()
	b.SetBytes(2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// taintRun returns one TaintChannel run of the bzip2 ftab gadget over
// 2 KiB of seeded random input; TestBudget pins its allocations.
func taintRun(t testing.TB) func() {
	input := make([]byte, 2048)
	rand.New(rand.NewSource(3)).Read(input)
	return analyzeOp(t, victims.BzipFtab(victims.BzipFtabOptions{}), input)
}

// analyzeOp returns one TaintChannel run of prog over input: a fresh
// machine and analyzer, as every caller of the tool builds them.
func analyzeOp(t testing.TB, prog *isa.Program, input []byte) func() {
	return func() {
		machine, err := vm.NewFlat(prog)
		if err != nil {
			t.Fatal(err)
		}
		machine.SetInput(input)
		core.New(core.Config{MaxSamplesPerGadget: 1}).Attach(machine)
		if err := machine.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// Compressor throughput on mixed text.
func benchCodec(b *testing.B, compress func([]byte) ([]byte, error)) {
	b.Helper()
	rng := rand.New(rand.NewSource(4))
	src := make([]byte, 64*1024)
	for i := 0; i < len(src); {
		if rng.Intn(2) == 0 {
			n := min(rng.Intn(200)+1, len(src)-i)
			c := byte('a' + rng.Intn(26))
			for j := 0; j < n; j++ {
				src[i+j] = c
			}
			i += n
		} else {
			src[i] = byte(rng.Intn(256))
			i++
		}
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compress(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLZ77Compress measures the DEFLATE-style codec.
func BenchmarkLZ77Compress(b *testing.B) {
	benchCodec(b, func(src []byte) ([]byte, error) {
		return lz77.Compress(src, lz77.Options{Lazy: true})
	})
}

// BenchmarkLZWCompress measures the ncompress-style codec.
func BenchmarkLZWCompress(b *testing.B) {
	benchCodec(b, func(src []byte) ([]byte, error) {
		return lzw.Compress(src, nil)
	})
}

// BenchmarkBWTCompress measures the bzip2-style codec.
func BenchmarkBWTCompress(b *testing.B) {
	benchCodec(b, func(src []byte) ([]byte, error) {
		return bwt.Compress(src, bwt.Options{})
	})
}

// BenchmarkCodec4KiB compresses and decompresses, with each codec, the
// 21 corpus.BrotliLike bodies capped at 4 KiB that perfbench's serve
// workloads send. One op is one pass over all 21 bodies. The 64 KiB
// benchmarks above spread a per-call table's cost over 64 KiB; here a
// table sized for the codec rather than the body shows at full weight.
func BenchmarkCodec4KiB(b *testing.B) {
	var bodies [][]byte
	size := 0
	for _, f := range corpus.BrotliLike(1) {
		body := f.Data[:min(len(f.Data), 4<<10)]
		bodies = append(bodies, body)
		size += len(body)
	}
	for _, c := range codec.All() {
		comps := make([][]byte, len(bodies))
		for i, body := range bodies {
			comp, err := c.Compress(body)
			if err != nil {
				b.Fatal(err)
			}
			comps[i] = comp
		}
		b.Run(c.Name+"/compress", func(b *testing.B) { benchBodies(b, c.Compress, bodies, size) })
		b.Run(c.Name+"/decompress", func(b *testing.B) { benchBodies(b, c.Decompress, comps, size) })
	}
}

// benchBodies runs op over every input per iteration. size is the plain
// bytes one pass stands for, so compress and decompress report the same
// MB/s base.
func benchBodies(b *testing.B, op func([]byte) ([]byte, error), inputs [][]byte, size int) {
	b.ReportAllocs()
	b.SetBytes(int64(size))
	for i := 0; i < b.N; i++ {
		for _, in := range inputs {
			if _, err := op(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSGXAttackPerByte measures leaked secret bytes per second of
// simulation (the analogue of the paper's "10 KB in under 30 s").
func BenchmarkSGXAttackPerByte(b *testing.B) {
	input := make([]byte, 512)
	rand.New(rand.NewSource(5)).Read(input)
	cfg := zipchannel.DefaultConfig()
	b.SetBytes(int64(len(input)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		res, err := zipchannel.Attack(input, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.BitAcc < 0.9 {
			b.Fatalf("attack degraded: %.3f", res.BitAcc)
		}
	}
}

// BenchmarkToolComparison regenerates the §VII tool contrast (E12).
func BenchmarkToolComparison(b *testing.B) {
	benchExperiment(b, "tools", "agreement")
}

// BenchmarkAllGadgetsSGX regenerates E13: the §V attack applied to all
// three surveyed gadgets.
func BenchmarkAllGadgetsSGX(b *testing.B) {
	benchExperiment(b, "sgx-all-gadgets", "bzipBitAcc", "lzwByteAcc", "zlibCharsetBitAcc")
}

// benchRunAll runs the full quick suite through the parallel scheduler
// at a fixed worker count, so `go test -bench 'BenchmarkRunAllQuick'`
// compares sequential against parallel wall time directly. On a
// single-CPU host the two are expected to tie (the suite is CPU-bound);
// the spread between them is the scheduler's win on multicore.
func benchRunAll(b *testing.B, parallelism int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAll(context.Background(), experiments.RunOptions{
			Quick:       true,
			Parallelism: parallelism,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAllQuickParallel1 is the sequential baseline.
func BenchmarkRunAllQuickParallel1(b *testing.B) { benchRunAll(b, 1) }

// BenchmarkRunAllQuickParallel4 fans experiments and their inner trials
// across 4 workers.
func BenchmarkRunAllQuickParallel4(b *testing.B) { benchRunAll(b, 4) }
