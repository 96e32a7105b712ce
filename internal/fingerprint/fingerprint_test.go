package fingerprint

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/zipchannel/zipchannel/internal/compress/bwt"
	"github.com/zipchannel/zipchannel/internal/corpus"
	"github.com/zipchannel/zipchannel/internal/nn"
)

func TestTimelineStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 25000) // 2 full blocks + short tail
	rng.Read(data)
	tl, err := BuildTimeline(data, bwt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mains, falls int
	var prevEnd uint64
	for _, iv := range tl.Intervals {
		if iv.Start < prevEnd {
			t.Errorf("intervals overlap: %+v starts before %d", iv, prevEnd)
		}
		if iv.End <= iv.Start {
			t.Errorf("empty interval %+v", iv)
		}
		prevEnd = iv.End
		switch iv.Fn {
		case FuncMain:
			mains++
		case FuncFallback:
			falls++
		}
	}
	if mains != 2 {
		t.Errorf("mainSort intervals = %d, want 2", mains)
	}
	if falls != 1 {
		t.Errorf("fallbackSort intervals = %d, want 1 (short tail)", falls)
	}
	if tl.Total < prevEnd {
		t.Error("total duration shorter than last interval")
	}
}

func TestTimelineRepetitiveAbandons(t *testing.T) {
	data := bytes.Repeat([]byte("xy"), 5000) // one full repetitive block
	tl, err := BuildTimeline(data, bwt.Options{WorkFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Expect a main interval followed by a fallback interval.
	var seq []Func
	for _, iv := range tl.Intervals {
		seq = append(seq, iv.Fn)
	}
	if len(seq) < 2 || seq[0] != FuncMain || seq[len(seq)-1] != FuncFallback {
		t.Errorf("abandonment sequence = %v, want main then fallback", seq)
	}
}

func TestSampleDetectsActivity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, 15000)
	rng.Read(data)
	tl, err := BuildTimeline(data, bwt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := tl.Sample(SampleConfig{Samples: 2000, Seed: 3})
	mainHits, fallHits := 0, 0
	for i := range tr.Main {
		if tr.Main[i] {
			mainHits++
		}
		if tr.Fallback[i] {
			fallHits++
		}
	}
	if mainHits == 0 {
		t.Error("full blocks ran mainSort but no hits recorded")
	}
	if fallHits == 0 {
		t.Error("the short tail ran fallbackSort but no hits recorded")
	}
	// The two monitored lines must be active at disjoint times: no sample
	// index should hit both (the functions never run concurrently).
	for i := range tr.Main {
		if tr.Main[i] && tr.Fallback[i] {
			t.Fatalf("sample %d hit both functions", i)
		}
	}
}

func TestFeaturesShapeAndTimeout(t *testing.T) {
	tr := &Trace{Main: make([]bool, NumSamples), Fallback: make([]bool, NumSamples)}
	f := Features(tr)
	if len(f) != 2*PoolWidth {
		t.Fatalf("feature width = %d, want %d", len(f), 2*PoolWidth)
	}
	for _, v := range f {
		if v != 2 {
			t.Fatal("all-idle trace should be encoded as the timeout value 2")
		}
	}
	tr.Main[5000] = true
	f = Features(tr)
	if f[500] != 1 {
		t.Error("hit at sample 5000 should pool into feature 500")
	}
	if f[0] != 0 {
		t.Error("other features should be 0")
	}
}

func TestBuildDatasetAndLabels(t *testing.T) {
	files := []corpus.File{
		{Name: "a", Data: bytes.Repeat([]byte("ab"), 8000)},
		{Name: "b", Data: func() []byte { b := make([]byte, 16000); rand.New(rand.NewSource(4)).Read(b); return b }()},
	}
	ds, err := BuildDataset(files, DatasetConfig{TracesPerFile: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 6 {
		t.Fatalf("dataset size = %d, want 6", len(ds))
	}
	counts := map[int]int{}
	for _, s := range ds {
		counts[s.Label]++
		if len(s.X) != 2*PoolWidth {
			t.Fatalf("feature width = %d", len(s.X))
		}
	}
	if counts[0] != 3 || counts[1] != 3 {
		t.Errorf("label counts = %v", counts)
	}
	// A negative trace count is an error, not a makeslice panic.
	if _, err := BuildDataset(files, DatasetConfig{TracesPerFile: -2}); err == nil {
		t.Error("TracesPerFile -2: want an error")
	}
}

// End-to-end mini-Fig-8: two files of very different repetitiveness must
// be distinguishable by the trained classifier.
func TestClassifierSeparatesTwoFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	random := make([]byte, 20000)
	rng.Read(random)
	files := []corpus.File{
		{Name: "repetitive", Data: bytes.Repeat([]byte("lorem ipsum dolor "), 1200)[:20000]},
		{Name: "random", Data: random},
	}
	ds, err := BuildDataset(files, DatasetConfig{TracesPerFile: 30, NoiseRate: 0.05, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	train, _, test := nn.Split(ds, 0.8, 0.0, 11)
	m, err := nn.New(12, 2*PoolWidth, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(train, nn.TrainConfig{Epochs: 15, LR: 0.02}); err != nil {
		t.Fatal(err)
	}
	acc, err := m.Accuracy(test)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("two-file accuracy = %.2f, want >= 0.9", acc)
	}
}

func TestPeriodJitterDiversifiesTraces(t *testing.T) {
	data := bytes.Repeat([]byte("jitter makes traces vary "), 1000)
	files := []corpus.File{{Name: "f", Data: data}}
	rigid, err := BuildDataset(files, DatasetConfig{TracesPerFile: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	jittered, err := BuildDataset(files, DatasetConfig{TracesPerFile: 4, Seed: 1, PeriodJitterFrac: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	dist := func(a, b []float64) float64 {
		d := 0.0
		for i := range a {
			if a[i] != b[i] {
				d++
			}
		}
		return d
	}
	var rigidD, jitterD float64
	for i := 1; i < 4; i++ {
		rigidD += dist(rigid[0].X, rigid[i].X)
		jitterD += dist(jittered[0].X, jittered[i].X)
	}
	if jitterD <= rigidD {
		t.Errorf("jittered traces (%v differing features) should vary more than rigid ones (%v)",
			jitterD, rigidD)
	}
}

func TestFeaturesShortTrace(t *testing.T) {
	tr := &Trace{Main: make([]bool, 100), Fallback: make([]bool, 100)}
	tr.Main[99] = true
	f := Features(tr)
	if len(f) != 2*PoolWidth {
		t.Fatalf("width = %d", len(f))
	}
	if f[99] != 1 {
		t.Error("short traces pool 1:1; sample 99 should set feature 99")
	}
}
