package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// numBuckets covers non-positive values (bucket 0) plus one bucket per
// power of two: bucket i (1..64) holds values v with 2^(i-1) <= v < 2^i.
const numBuckets = 65

// Histogram accumulates int64 observations into fixed log-spaced
// (power-of-two) buckets, so snapshots are deterministic under a fixed
// seed regardless of observation order. Create one with NewHistogram
// (or Registry.Histogram): a zero-value Histogram starts min and max at
// 0, so it misreports the min of positive observations and the max of
// negative ones. All methods are no-ops on a nil receiver.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Uint64
	// exemplars holds, per bucket, the most recent traced observation
	// that landed there (ObserveExemplar). Exemplars link slow buckets to
	// trace IDs for the Prometheus exposition and dashboards; they are
	// deliberately absent from canonical snapshots — their presence
	// depends on whether tracing is armed, and snapshots must stay
	// byte-identical either way.
	exemplars [numBuckets]atomic.Pointer[Exemplar]
}

// Exemplar ties one observed value to the trace that produced it.
type Exemplar struct {
	Value   int64  `json:"value"`
	TraceID string `json:"trace_id"`
}

// NewHistogram creates a standalone histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) // 1..64
}

// BucketLow returns the inclusive lower bound of bucket i (the key used
// in snapshots): 0 for the non-positive bucket, else 2^(i-1).
func BucketLow(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return uint64(1) << uint(i-1)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketIndex(v)].Add(1)
	storeMin(&h.min, v)
	storeMax(&h.max, v)
}

// ObserveExemplar records one value like Observe and, when traceID is
// non-empty, remembers it as the bucket's exemplar (last writer wins).
// With an empty traceID it is exactly Observe, so call sites can pass a
// possibly-absent trace ID unconditionally.
func (h *Histogram) ObserveExemplar(v int64, traceID string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID != "" {
		h.exemplars[bucketIndex(v)].Store(&Exemplar{Value: v, TraceID: traceID})
	}
}

// Exemplars returns the buckets that currently hold an exemplar, keyed
// by bucket index (see BucketLow). Nil-safe; returns nil when empty.
func (h *Histogram) Exemplars() map[int]Exemplar {
	if h == nil {
		return nil
	}
	var out map[int]Exemplar
	for i := 0; i < numBuckets; i++ {
		if e := h.exemplars[i].Load(); e != nil {
			if out == nil {
				out = map[int]Exemplar{}
			}
			out[i] = *e
		}
	}
	return out
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// storeMin lowers a to v unless it is already at most v.
func storeMin(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v >= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// storeMax raises a to v unless it is already at least v.
func storeMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// LocalHistogram is a Histogram for a single goroutine's hot path: plain
// fields, no atomics, and nothing shared until PublishTo hands the
// observations to a registry Histogram. The zero value is ready to use.
// Not safe for concurrent use.
type LocalHistogram struct {
	count    uint64
	sum      int64
	min, max int64
	buckets  [numBuckets]uint64
}

// Observe records one value.
func (h *LocalHistogram) Observe(v int64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketIndex(v)]++
}

// PublishTo adds the observations made since the last call to dst —
// count, sum, buckets, min and max, exactly as calling dst.Observe on
// each value would have — and empties h. A nil dst discards them.
func (h *LocalHistogram) PublishTo(dst *Histogram) {
	if h.count == 0 {
		return
	}
	if dst != nil {
		dst.count.Add(h.count)
		dst.sum.Add(h.sum)
		for i, n := range h.buckets {
			if n > 0 {
				dst.buckets[i].Add(n)
			}
		}
		storeMin(&dst.min, h.min)
		storeMax(&dst.max, h.max)
	}
	*h = LocalHistogram{}
}
