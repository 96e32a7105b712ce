package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestSanitizeMetricName(t *testing.T) {
	cases := map[string]string{
		"server.cache.hits":   "server_cache_hits",
		"a-b c/d":             "a_b_c_d",
		"9lives":              "_9lives",
		"ok_name:with_colons": "ok_name:with_colons",
		"":                    "_",
	}
	for in, want := range cases {
		if got := SanitizeMetricName(in); got != want {
			t.Errorf("SanitizeMetricName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEscapeLabelValue(t *testing.T) {
	if got := EscapeLabelValue("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Fatalf("escape = %q", got)
	}
}

// TestPromGolden pins WritePrometheus byte for byte on one registry that
// reaches every branch of prom.go: a counter, a fractional gauge, a name
// that needs sanitizing, skipped empty buckets, the non-positive bucket,
// an observation >= 2^62 folded into +Inf, and an exemplar whose trace ID
// needs escaping.
func TestPromGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("server.requests").Add(7)
	reg.Counter("9lives.total").Add(3)
	reg.Gauge("server.cache.bytes").Set(1234.5)
	h := reg.Histogram("server.request_latency_us")
	h.Observe(0)
	h.Observe(3)
	h.Observe(900)
	h.ObserveExemplar(5000, `4bf9"quoted\slash`)
	h.Observe(1 << 62)

	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "prom.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("exposition diverges from golden:\ngot:\n%s\nwant:\n%s", b.Bytes(), want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram()
	// 100 observations of 100 (bucket [64,128)) and 10 of 5000
	// (bucket [4096,8192)).
	for i := 0; i < 100; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(5000)
	}
	var snap HistogramSnapshot
	{
		reg := NewRegistry()
		reg.Histogram("x").Merge(h)
		snap = reg.Snapshot().Histograms["x"]
	}
	p50 := snap.Quantile(0.50)
	if p50 < 64 || p50 >= 128 {
		t.Fatalf("p50 = %v, want inside [64,128)", p50)
	}
	p99 := snap.Quantile(0.99)
	if p99 < 4096 || p99 > 5000 {
		t.Fatalf("p99 = %v, want in [4096, 5000] (clamped to max)", p99)
	}
	if got := snap.Quantile(0); got != float64(snap.Min) {
		t.Fatalf("q=0 -> %v, want min %d", got, snap.Min)
	}
	if got := snap.Quantile(1); got != float64(snap.Max) {
		t.Fatalf("q=1 -> %v, want max %d", got, snap.Max)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	qs := snap.Quantiles(0.5, 0.95, 0.99)
	if len(qs) != 3 || math.IsNaN(qs[1]) {
		t.Fatalf("Quantiles = %v", qs)
	}
}

func TestHistogramExemplars(t *testing.T) {
	h := NewHistogram()
	h.ObserveExemplar(100, "trace-a")
	h.ObserveExemplar(120, "trace-b") // same bucket: last wins
	h.ObserveExemplar(9000, "")       // no trace: observation only
	ex := h.Exemplars()
	if len(ex) != 1 {
		t.Fatalf("exemplar buckets = %v, want exactly 1", ex)
	}
	for _, e := range ex {
		if e.TraceID != "trace-b" || e.Value != 120 {
			t.Fatalf("exemplar = %+v, want last-writer trace-b/120", e)
		}
	}
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3 (empty trace ID still observes)", h.Count())
	}
	var nilH *Histogram
	nilH.ObserveExemplar(1, "t")
	if nilH.Exemplars() != nil {
		t.Fatal("nil histogram exemplars")
	}
}
