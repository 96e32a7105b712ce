// Median-of-samples timing filter, shared by the Prime+Probe timer
// (measure) and the pagestore compression-time oracle
// (internal/zipchannel). Both attacks face the same adversary — a noisy
// timer — and beat it the same way: the underlying quantity is
// deterministic, so it can be re-read k times through the jittered
// timer and classified by the median, the repeated-measurement
// amplification of Schwarzl et al.'s remote timing attacks.
package attacker

import (
	"sort"

	"github.com/zipchannel/zipchannel/internal/fault"
)

// SampleMedian returns the median of reads, sorting the slice in place.
// For even counts it returns the upper median (reads[k/2]) — the exact
// historical semantics of PrimeProbe.measure, which the pagestore
// oracle now shares. An empty slice returns 0.
func SampleMedian(reads []int) int {
	if len(reads) == 0 {
		return 0
	}
	sort.Ints(reads)
	return reads[len(reads)/2]
}

// FilteredReading reads one deterministic measurement `clean` k times
// through a possibly-jittered timer fault point and returns the
// median-filtered value plus how many readings were jittered. Each
// reading consumes exactly one Hit from the point's stream, in order,
// so replays are deterministic. k <= 0 uses DefaultTimerSamples.
//
// A nil point returns (clean, 0) without consuming anything, and so
// does a k-sample pass in which no reading jittered — both paths leave
// the caller byte-identical to a fault-free build. The readings are
// stored only once one has jittered, so a clean pass allocates nothing.
func FilteredReading(clean, k int, point *fault.Point) (val, noisy int) {
	if point == nil {
		return clean, 0
	}
	if k <= 0 {
		k = DefaultTimerSamples
	}
	var reads []int
	for i := 0; i < k; i++ {
		if in := point.Hit(); in.Kind == fault.KindLatency {
			if reads == nil {
				reads = make([]int, k)
				for j := range reads {
					reads[j] = clean
				}
			}
			reads[i] += int(in.Jitter())
			noisy++
		}
	}
	if noisy == 0 {
		return clean, 0
	}
	return SampleMedian(reads), noisy
}
