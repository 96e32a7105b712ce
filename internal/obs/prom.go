package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (content type "text/plain; version=0.0.4")
// rendered straight from the live registry, so one registry serves both
// the canonical JSON snapshot (deterministic, for tests and goldens) and
// an external scraper. Metric names are sanitized (dots become
// underscores), histograms become cumulative le-bucketed families, and
// buckets that carry an exemplar append it OpenMetrics-style:
//
//	server_request_latency_us_bucket{le="4096"} 17 # {trace_id="4bf9..."} 3801
//
// Output is sorted by metric name, so scrapes of an idle registry are
// stable line for line.

// PromContentType is the Content-Type for the exposition output.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// SanitizeMetricName maps an internal dotted metric name onto the
// Prometheus name charset [a-zA-Z0-9_:], replacing every invalid rune
// with '_' and prefixing '_' if the result would start with a digit.
func SanitizeMetricName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// EscapeLabelValue escapes a label value per the exposition format:
// backslash, double-quote, and newline.
func EscapeLabelValue(v string) string {
	var b strings.Builder
	b.Grow(len(v))
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// WritePrometheus renders the registry's current state as Prometheus
// text exposition. Counters and gauges map directly; each histogram
// becomes <name>_bucket{le="..."} cumulative counts over the power-of-two
// bucket upper bounds plus <name>_sum and <name>_count. Nil registry
// writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, k := range sortedKeys(counters) {
		name := SanitizeMetricName(k)
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", name, name, counters[k].Value())
	}
	for _, k := range sortedKeys(gauges) {
		name := SanitizeMetricName(k)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", name, name, formatFloat(gauges[k].Value()))
	}
	for _, k := range sortedKeys(hists) {
		writePromHistogram(&b, SanitizeMetricName(k), hists[k])
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writePromHistogram renders one histogram family. Bucket i of the log
// histogram holds [2^(i-1), 2^i), so it is exposed with le = 2^i (its
// exclusive upper bound — within one observation of the inclusive
// Prometheus semantics, which is the resolution the buckets have anyway).
func writePromHistogram(b *strings.Builder, name string, h *Histogram) {
	exemplars := h.Exemplars()
	fmt.Fprintf(b, "# TYPE %s histogram\n", name)
	cum := uint64(0)
	for i := 0; i < numBuckets && i < 63; i++ {
		// Buckets 63+ (values >= 2^62) fold into the final +Inf bucket.
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		le := "1"
		if i > 0 {
			le = strconv.FormatUint(uint64(1)<<uint(i), 10)
		}
		fmt.Fprintf(b, "%s_bucket{le=%q} %d", name, le, cum)
		if e, ok := exemplars[i]; ok {
			fmt.Fprintf(b, " # {trace_id=\"%s\"} %d", EscapeLabelValue(e.TraceID), e.Value)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
	fmt.Fprintf(b, "%s_sum %d\n", name, h.Sum())
	fmt.Fprintf(b, "%s_count %d\n", name, h.Count())
}
