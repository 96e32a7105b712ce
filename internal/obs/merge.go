package obs

// Merge folds src's instruments into r. It is the registry half of the
// parallel experiment scheduler: each task runs against its own private
// registry, and the scheduler merges them into the run's shared registry
// in stable task order, so the merged snapshot is byte-identical to the
// one a sequential run on a single shared registry would have produced.
//
// Semantics per instrument kind:
//
//   - counters add,
//   - histograms add (counts, sums, buckets; min/max take the extremes),
//   - gauges take src's value — last-merged-wins, which reproduces the
//     last-writer-wins outcome of sequential execution when sources are
//     merged in task order,
//   - hidden wall-clock span totals add.
//
// The sim clock and trace sink are left untouched. Merging a nil src (or
// into a nil r) is a no-op. Merge does not snapshot src atomically; the
// caller must have stopped writing to src first.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	counters := make(map[string]*Counter, len(src.counters))
	for k, v := range src.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(src.gauges))
	for k, v := range src.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(src.hists))
	for k, v := range src.hists {
		hists[k] = v
	}
	wall := make(map[string]*Counter, len(src.wall))
	for k, v := range src.wall {
		wall[k] = v
	}
	src.mu.Unlock()

	for k, c := range counters {
		r.Counter(k).Add(c.Value())
	}
	for k, g := range gauges {
		r.Gauge(k).Set(g.Value())
	}
	for k, h := range hists {
		r.Histogram(k).Merge(h)
	}
	for k, c := range wall {
		r.wallCounter(k).Add(c.Value())
	}
}

// Merge folds src's observations into h: counts, sums, and buckets add;
// min/max take the extremes. No-op when either side is nil or src is
// empty. The caller must have stopped writing to src.
func (h *Histogram) Merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	n := src.count.Load()
	if n == 0 {
		return
	}
	h.count.Add(n)
	h.sum.Add(src.sum.Load())
	for i := 0; i < numBuckets; i++ {
		if v := src.buckets[i].Load(); v > 0 {
			h.buckets[i].Add(v)
		}
	}
	storeMin(&h.min, src.min.Load())
	storeMax(&h.max, src.max.Load())
}
