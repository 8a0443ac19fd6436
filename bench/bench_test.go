package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at toy size, untraced and traced, and checks
// that every registered metric comes out: each end-to-end metric on each
// workload, each per-layer metric on at least one.
func TestSmoke(t *testing.T) {
	opt := runOpts{seed: 1, minReps: 1, micro: 2 * time.Millisecond, outDir: t.TempDir(), logf: t.Logf}
	seen := map[string]bool{}
	for _, w := range workloads {
		opt.traced = false
		res, err := w.run(true, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.check(endToEnd, true); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted <= 0 {
			t.Errorf("%s: failed %d of %d attempted deliveries", w.name, res.Failed, res.Attempted)
		}
		line := res.line(endToEnd)
		if len(line.Metrics) != len(endToEnd) {
			t.Errorf("%s: result line has %d metrics, want %d", w.name, len(line.Metrics), len(endToEnd))
		}

		opt.traced = true
		res, err = w.run(true, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.check(perLayer, false); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for name := range res.Samples {
			seen[name] = true
		}
		if st, err := os.Stat(opt.spansFile(w.name)); err != nil || st.Size() == 0 {
			t.Errorf("%s: no spans written: %v", w.name, err)
		}
	}
	for _, d := range perLayer {
		if !seen[d.Name] {
			t.Errorf("per-layer metric %s: no workload reported it", d.Name)
		}
	}
}

func TestMetricNames(t *testing.T) {
	used := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %v", d.Name, metricName)
		}
		if used[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		used[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json registers exactly what this
// package measures.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var reg struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&reg); err != nil {
		t.Fatal(err)
	}
	if strings.Join(reg.Command, " ") != "go run ./bench" || len(reg.Paths) != 1 || reg.Paths[0] != "bench" {
		t.Errorf("command %v, paths %v", reg.Command, reg.Paths)
	}
	if reg.RunSeconds < 1 || reg.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", reg.RunSeconds)
	}
	if len(reg.Workloads) != len(workloads) {
		t.Fatalf("%d workloads registered, %d defined", len(reg.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if reg.Workloads[i].Name != w.name || reg.Workloads[i].Why != w.why {
			t.Errorf("workload %d: registered %+v, defined %q: %q", i, reg.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics registered, %d defined", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: registered %+v, defined %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", reg.EndToEnd, endToEnd)
	same("per_layer", reg.PerLayer, perLayer)
}

func TestSelfTime(t *testing.T) {
	cases := []struct {
		name     string
		span     interval
		children []interval
		want     int64
	}{
		{"no children", interval{10, 110}, nil, 100},
		{"sequential children", interval{0, 100}, []interval{{10, 20}, {30, 60}}, 60},
		{"overlapping children count once", interval{0, 100}, []interval{{10, 50}, {40, 70}}, 40},
		{"nested child adds nothing", interval{0, 100}, []interval{{10, 90}, {20, 30}}, 20},
		{"children clipped to the span", interval{50, 100}, []interval{{0, 60}, {90, 200}}, 30},
		{"child outside the span", interval{50, 100}, []interval{{0, 40}, {100, 120}}, 50},
		{"unsorted children", interval{0, 100}, []interval{{60, 80}, {0, 10}}, 70},
		{"fully covered", interval{0, 100}, []interval{{0, 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(c.span, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.125, 1.5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should read 0")
	}
	if got := spread([]float64{90, 100, 110, 95, 105}); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("spread = %v, want 0.10", got)
	}
}

func TestHist(t *testing.T) {
	// Every value lands in a bin whose range holds it, and bins tile the axis.
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 123456789, 1 << 40, math.MaxInt64} {
		b := histBin(v)
		if lo := histBinLow(b); lo > v {
			t.Errorf("value %d: bin %d starts at %d", v, b, lo)
		}
		if b+1 < histBins {
			if hi := histBinLow(b + 1); hi <= v {
				t.Errorf("value %d: bin %d ends at %d", v, b, hi)
			}
		}
	}
	for i := 1; i < histBins; i++ {
		if histBin(histBinLow(i)) != i || histBin(histBinLow(i)-1) != i-1 {
			t.Fatalf("bin %d does not start where bin %d ends", i, i-1)
		}
	}

	var h hist
	if h.percentile(50) != 0 {
		t.Error("percentile of an empty histogram should read 0")
	}
	for v := int64(1); v <= 100000; v++ {
		h.add(v * 1000)
	}
	for _, p := range []float64{1, 50, 90, 99, 100} {
		want := p / 100 * 100000 * 1000
		if got := h.percentile(p); math.Abs(got-want)/want > 1.0/histSub {
			t.Errorf("p%v = %v, want %v within 1/%d", p, got, want, histSub)
		}
	}
	if h.percentile(100) > float64(h.max) {
		t.Errorf("p100 %v exceeds the maximum %d", h.percentile(100), h.max)
	}
	var m hist
	m.merge(&h)
	m.merge(&h)
	if m.n != 2*h.n || m.max != h.max || m.percentile(50) != h.percentile(50) {
		t.Errorf("merge: n %d max %d p50 %v, from n %d max %d p50 %v", m.n, m.max, m.percentile(50), h.n, h.max, h.percentile(50))
	}
	m.reset()
	if m.n != 0 || m.percentile(50) != 0 {
		t.Error("reset left observations behind")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "y", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"worse within the bound", lower, steady, []float64{105, 106, 104, 105, 105}, "ok"},
		{"worse past the bound", lower, steady, []float64{115, 116, 114, 115, 115}, "regression"},
		{"higher is better, drop past the bound", higher, steady, []float64{85, 86, 84, 85, 85}, "regression"},
		{"higher is better, rise", higher, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{"spread wider than the bound", lower, steady, []float64{80, 120, 100, 90, 110}, "unresolved"},
		{"wide spread but every run better", lower, []float64{200, 260, 230, 210, 250}, []float64{100, 140, 120, 110, 130}, "ok"},
	}
	for _, c := range cases {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	write := func(name string, v float64) string {
		f := resultFile{Workloads: map[string]*workloadResult{}}
		for _, w := range workloads {
			wr := &workloadResult{EndToEnd: map[string]series{}}
			for _, d := range endToEnd {
				wr.EndToEnd[d.Name] = series{Unit: d.Unit, Values: []float64{v, v * 1.01, v * 0.99}}
			}
			f.Workloads[w.name] = wr
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a.json", 100), write("b.json", 130)
	var out bytes.Buffer
	if bad, err := compareFiles(&out, a, a); err != nil || bad {
		t.Errorf("a file against itself: bad=%v err=%v\n%s", bad, err, out.String())
	}
	out.Reset()
	bad, err := compareFiles(&out, a, b)
	if err != nil || !bad || !strings.Contains(out.String(), "regression") {
		t.Errorf("every metric 30%% up: bad=%v err=%v\n%s", bad, err, out.String())
	}
	out.Reset()
	if bad, err := compareFiles(&out, b, a); err != nil || bad {
		t.Errorf("every metric 23%% down: bad=%v err=%v\n%s", bad, err, out.String())
	}
}
