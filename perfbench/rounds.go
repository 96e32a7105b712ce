package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stealMax is the share of the host's CPU time that the hypervisor may
// steal during a measured round before the round counts as disturbed.
// On a shared virtual machine, stolen time stretches every latency and
// cuts every rate of that round, whatever the code under test does.
const stealMax = 0.03

// cpuTicks reads the host's stolen and total CPU ticks from the first
// line of /proc/stat; ok is false where that file does not exist.
func cpuTicks() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// Fields 9 and 10 (guest time) are already counted in user time.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// steadyRounds calls round until dur has passed; the rounds run by then
// are the planned count. While fewer rounds than that ran with at most
// stealMax of the host's CPU time stolen, it adds rounds until 5/4 of
// dur has passed. It returns the indices of the planned count of
// least-disturbed rounds, in the order they ran, and their mean steal
// share. Rounds are chosen by the host's steal counter alone, never by
// their results, and callers count failures of every round.
func steadyRounds(dur time.Duration, round func()) (kept []int, steal float64) {
	type stat struct {
		i     int
		share float64
	}
	var stats []stat
	calm, want := 0, 0
	start := time.Now()
	for i := 0; ; i++ {
		if want == 0 && time.Since(start) >= dur {
			want = len(stats)
		}
		if want > 0 && (calm >= want || time.Since(start) >= dur*5/4) {
			break
		}
		s0, t0, ok0 := cpuTicks()
		round()
		s1, t1, ok1 := cpuTicks()
		share := 0.0
		if ok0 && ok1 && t1 > t0 {
			share = float64(s1-s0) / float64(t1-t0)
		}
		if share <= stealMax {
			calm++
		}
		stats = append(stats, stat{i, share})
	}
	sort.SliceStable(stats, func(a, b int) bool { return stats[a].share < stats[b].share })
	stats = stats[:min(want, len(stats))]
	for _, s := range stats {
		kept = append(kept, s.i)
		steal += s.share
	}
	sort.Ints(kept)
	return kept, steal / float64(len(kept))
}
