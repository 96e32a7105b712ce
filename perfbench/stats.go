package main

import (
	"math"
	"math/bits"
	"runtime"
	"sort"
)

// quantile is the nearest-rank q-quantile of xs (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailQ is the percentile a run of n latency samples reports as p99_ms:
// 0.99 from 1000 samples on, below that the highest percentile that still
// has ten samples beyond it (never below the median).
func tailQ(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	return max(0.5, 1-10/float64(n))
}

// median is the middle value of xs, averaging the two middle values of
// an even count (0 for no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memDelta measures process allocation between two points.
type memDelta struct{ bytes, gcs uint64 }

func memNow() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{bytes: ms.TotalAlloc, gcs: uint64(ms.NumGC)}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{bytes: a.bytes - b.bytes, gcs: a.gcs - b.gcs}
}

func (a memDelta) plus(b memDelta) memDelta {
	return memDelta{bytes: a.bytes + b.bytes, gcs: a.gcs + b.gcs}
}

// bitsEqual counts equal bits between want and got; bytes missing from
// or added to got count as wrong. It returns (equal, total).
func bitsEqual(want, got []byte) (int64, int64) {
	n := max(len(want), len(got))
	total := int64(8 * n)
	wrong := int64(8 * (n - min(len(want), len(got))))
	for i := 0; i < min(len(want), len(got)); i++ {
		wrong += int64(bits.OnesCount8(want[i] ^ got[i]))
	}
	return total - wrong, total
}
