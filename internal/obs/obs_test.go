package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestCounterSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if r.Counter("x") != c {
		t.Error("same name should return the same counter")
	}
	if r.Counter("y").Value() != 0 {
		t.Error("fresh counter should be zero")
	}
}

func TestGaugeSemantics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("loss")
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %f, want 1.5", got)
	}
}

func TestHistogramSemantics(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{-3, 0, 1, 1, 2, 3, 4, 100, 1 << 40} {
		h.Observe(v)
	}
	if h.Count() != 9 {
		t.Errorf("count = %d, want 9", h.Count())
	}
	wantSum := int64(-3 + 0 + 1 + 1 + 2 + 3 + 4 + 100 + 1<<40)
	if h.Sum() != wantSum {
		t.Errorf("sum = %d, want %d", h.Sum(), wantSum)
	}
	// Bucket layout: "0" non-positive, then [2^(i-1), 2^i).
	wantBuckets := map[int64]uint64{ // value -> expected bucket lower bound
		-3: 0, 0: 0, 1: 1, 2: 2, 3: 2, 4: 4, 100: 64, 1 << 40: 1 << 40,
	}
	for v, lo := range wantBuckets {
		if got := BucketLow(bucketIndex(v)); got != lo {
			t.Errorf("bucket of %d has lower bound %d, want %d", v, got, lo)
		}
	}
	if h.min.Load() != -3 || h.max.Load() != 1<<40 {
		t.Errorf("min/max = %d/%d", h.min.Load(), h.max.Load())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.Histogram("c").Observe(5)
	r.Emit("ev", map[string]any{"k": 1})
	r.SetSimClock(func() uint64 { return 1 })
	r.StartSpan("sp").End()
	if r.SimNow() != 0 {
		t.Error("nil registry SimNow should be 0")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry snapshot should be empty")
	}
	stop := r.StartProgress(os.Stderr, time.Hour, nil)
	stop()
	var sink *TraceSink
	sink.Emit("x", 0, nil)
}

func populated() *Registry {
	r := NewRegistry()
	var sim uint64
	r.SetSimClock(func() uint64 { return sim })
	r.Counter("cache.hits").Add(120)
	r.Counter("cache.misses").Add(30)
	r.Counter("vm.instructions").Add(4096)
	r.Gauge("attack.bit_acc").Set(0.9951171875) // exactly representable
	r.Gauge("nn.loss").Set(0.125)
	h := r.Histogram("pp.probe_latency")
	for _, v := range []int64{38, 41, 44, 199, 204, 212, 0} {
		h.Observe(v)
	}
	sim = 17
	sp := r.StartSpan("attack.step")
	sim = 42
	sp.End()
	return r
}

// TestSnapshotGolden locks the canonical JSON encoding: sorted keys,
// deterministic bucket labels, no wall-clock contamination.
func TestSnapshotGolden(t *testing.T) {
	got, err := populated().Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "snapshot.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("snapshot diverges from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if strings.Contains(string(got), "wall") {
		t.Error("snapshot must not contain wall-clock data")
	}
}

// TestSnapshotDeterminism builds the same registry twice and requires
// byte-identical marshalling.
func TestSnapshotDeterminism(t *testing.T) {
	a, err := populated().Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	b, err := populated().Snapshot().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("identical runs produced different snapshots:\n%s\nvs\n%s", a, b)
	}
}

func TestSpanDualClock(t *testing.T) {
	r := NewRegistry()
	var sim uint64
	r.SetSimClock(func() uint64 { return sim })
	sp := r.StartSpan("work")
	sim += 1000
	sp.End()
	if got := r.Counter("work.calls").Value(); got != 1 {
		t.Errorf("calls = %d, want 1", got)
	}
	if got := r.Histogram("work.sim").Sum(); got != 1000 {
		t.Errorf("sim duration sum = %d, want 1000", got)
	}
	wall := r.WallTotals()
	if wall["work"] == 0 {
		t.Error("wall total should be nonzero")
	}
	// A second End records nothing.
	sim += 500
	sp.End()
	if got := r.Counter("work.calls").Value(); got != 1 {
		t.Errorf("calls after second End = %d, want 1", got)
	}
	if got := r.Histogram("work.sim").Count(); got != 1 {
		t.Errorf("sim observations after second End = %d, want 1", got)
	}
	if got := r.WallTotals()["work"]; got != wall["work"] {
		t.Errorf("wall total moved on second End: %d -> %d", wall["work"], got)
	}
	// Without a sim clock, no sim histogram is created.
	r2 := NewRegistry()
	r2.StartSpan("w2").End()
	if _, ok := r2.Snapshot().Histograms["w2.sim"]; ok {
		t.Error("clockless span should not create a sim histogram")
	}
}

func TestTraceSinkNDJSON(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry()
	r.SetTraceSink(NewTraceSink(&buf))
	var sim uint64 = 9
	r.SetSimClock(func() uint64 { return sim })
	r.Emit("probe", map[string]any{"set": 12, "hot": true})
	r.Emit("probe", map[string]any{"set": 13, "hot": false})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("line %d is not JSON: %v", i, err)
		}
		if obj["ev"] != "probe" || obj["sim"] != float64(9) {
			t.Errorf("line %d missing stamps: %v", i, obj)
		}
		if obj["seq"] != float64(i+1) {
			t.Errorf("line %d seq = %v, want %d", i, obj["seq"], i+1)
		}
	}

	// An untraced span's event carries no trace identity keys.
	buf.Reset()
	sp := r.StartSpan("phase")
	sim += 3
	sp.End()
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("span event is not JSON: %v (%s)", err, buf.Bytes())
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, ","), "ev,name,seq,sim,sim_cycles,wall_ns"; got != want {
		t.Errorf("span event keys = %s, want %s", got, want)
	}
	if obj["ev"] != "span" || obj["name"] != "phase" || obj["sim_cycles"] != float64(3) {
		t.Errorf("span event = %v", obj)
	}
}

func TestProgress(t *testing.T) {
	var buf bytes.Buffer
	r := NewRegistry()
	r.Counter("iters").Add(7)
	stop := r.StartProgress(&buf, time.Hour, nil)
	stop()
	stop() // idempotent
	out := buf.String()
	if !strings.Contains(out, "iters=7") {
		t.Errorf("progress line missing counter: %q", out)
	}
}

func TestDefaultProgressLineEmpty(t *testing.T) {
	if got := DefaultProgressLine(NewRegistry().Snapshot()); !strings.Contains(got, "no counters") {
		t.Errorf("empty progress line = %q", got)
	}
}
