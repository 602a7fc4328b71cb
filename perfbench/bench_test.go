package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"testing"

	"pi2/internal/golden"
)

func TestMedianAndQuartilesMatchPythonStatistics(t *testing.T) {
	// Expected values from statistics.quantiles(xs, n=4) (method
	// "exclusive"), which the steadiness report also uses.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{5, 1, 4, 2}, 1.25, 3, 4.75},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); m != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
	if q1, q2, q3 := quartiles([]float64{7}); q1 != 7 || q2 != 7 || q3 != 7 {
		t.Errorf("single sample quartiles = %v %v %v, want 7 7 7", q1, q2, q3)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestWorkloadTotalsAreSumsOfPerCellMedians(t *testing.T) {
	cs := cellSeries{
		{1, 9, 2},    // median 2: one slow pass does not move it
		{10, 11, 12}, // median 11
		{},           // no samples (an analytic cell's set-up): skipped
	}
	if got := cs.sumOfMedians(); got != 13 {
		t.Errorf("sumOfMedians = %v, want 13", got)
	}
	if v, c := cs.maxOfMedians(); v != 11 || c != 1 {
		t.Errorf("maxOfMedians = %v (cell %d), want 11 (cell 1)", v, c)
	}
	totals := cellSeries{{1, 9, 2}, {10, 11, 12}}.passTotals()
	if want := []float64{11, 20, 14}; !slices.Equal(totals, want) {
		t.Errorf("passTotals = %v, want %v", totals, want)
	}
}

func TestPassOrderIsRoundRobin(t *testing.T) {
	const n = 9
	for pass := 0; pass < 5; pass++ {
		order := passOrder(n, 42, pass)
		sorted := append([]int(nil), order...)
		sort.Ints(sorted)
		for i, c := range sorted {
			if c != i {
				t.Fatalf("pass %d order %v does not visit every cell exactly once", pass, order)
			}
		}
		if again := passOrder(n, 42, pass); !slices.Equal(order, again) {
			t.Errorf("pass %d order not reproducible from the seed: %v vs %v", pass, order, again)
		}
	}
	if slices.Equal(passOrder(n, 42, 0), passOrder(n, 42, 1)) && slices.Equal(passOrder(n, 42, 1), passOrder(n, 42, 2)) {
		t.Error("every pass runs the cells in the same order")
	}
	if slices.Equal(passOrder(n, 1, 0), passOrder(n, 2, 0)) && slices.Equal(passOrder(n, 1, 1), passOrder(n, 2, 1)) {
		t.Error("the seed does not change the order")
	}
}

// fakeBench is a workload of one cell whose output and reference the test
// controls.
func fakeBench(out outcome, check func(outcome) []string) *bench {
	c := &cell{id: "fake", run: func() outcome { return out }, check: check}
	return &bench{workload: "test", cells: []*cell{c}, out: io.Discard}
}

func TestMismatchingFingerprintCountsAsFailure(t *testing.T) {
	ref := refCell{Seed: 7, Metrics: map[string]float64{"flows": 100, "jain": 0.9, "q_mean_ms": 20, "q_p99_ms": 30, "util": 0.98, "events": 1e5}}
	got := outcome{seed: 7, metrics: map[string]float64{}}
	for k, v := range ref.Metrics {
		got.metrics[k] = v
	}
	got.digest = digest(got.metrics)

	b := fakeBench(got, func(o outcome) []string { return checkTolerance("fake", ref, o) })
	b.verify(0, got)
	if b.failed != 0 {
		t.Fatalf("matching output failed: %v", b.notes)
	}

	perturbed := refCell{Seed: 7, Metrics: map[string]float64{}}
	for k, v := range ref.Metrics {
		perturbed.Metrics[k] = v
	}
	perturbed.Metrics["q_mean_ms"] *= 1.1 // outside the 2% golden band
	b = fakeBench(got, func(o outcome) []string { return checkTolerance("fake", perturbed, o) })
	b.verify(0, got)
	if b.failed != 1 {
		t.Errorf("perturbed reference: failed = %d, want 1", b.failed)
	}

	// A cell error is a failed operation too.
	b = fakeBench(got, func(o outcome) []string { return nil })
	b.verify(0, outcome{err: "panic: invariant violated"})
	if b.failed != 1 {
		t.Errorf("cell error: failed = %d, want 1", b.failed)
	}
}

func TestOutputMustRepeatExactly(t *testing.T) {
	m := map[string]float64{"x": 1}
	b := fakeBench(outcome{}, func(outcome) []string { return nil })
	b.verify(0, outcome{metrics: m, digest: digest(m)})
	b.verify(0, outcome{metrics: m, digest: digest(m)})
	if b.failed != 0 {
		t.Fatalf("identical outputs failed: %v", b.notes)
	}
	m2 := map[string]float64{"x": math.Nextafter(1, 2)}
	b.verify(0, outcome{metrics: m2, digest: digest(m2)})
	if b.failed != 1 {
		t.Errorf("a one-ulp change between runs: failed = %d, want 1", b.failed)
	}
}

func TestFFFidelityBounds(t *testing.T) {
	ref := refCell{Seed: 3, Metrics: map[string]float64{"flows": 1000, "util": 0.99, "q_mean_ms": 20, "jain": 0.95}}
	ok := outcome{seed: 3, metrics: map[string]float64{"flows": 1000, "util": 0.96, "q_mean_ms": 24, "jain": 0.94}}
	if ms := checkFFFidelity("c", ref, ok); len(ms) != 0 {
		t.Errorf("within bounds, got mismatches %v", ms)
	}
	for k, v := range map[string]float64{"util": 0.90, "q_mean_ms": 26, "jain": 0.92} {
		bad := outcome{seed: 3, metrics: map[string]float64{}}
		for kk, vv := range ok.metrics {
			bad.metrics[kk] = vv
		}
		bad.metrics[k] = v
		if ms := checkFFFidelity("c", ref, bad); len(ms) != 1 {
			t.Errorf("%s = %v: got %d mismatches %v, want 1", k, v, len(ms), ms)
		}
	}
}

func TestGoldenCheckFiresOnPerturbedBaseline(t *testing.T) {
	want, err := golden.Baseline("fig11", "")
	if err != nil {
		t.Fatal(err)
	}
	r := want.Runs[0]
	got := outcome{seed: r.Seed, metrics: map[string]float64{}}
	for k, v := range r.Metrics {
		got.metrics[k] = v
	}
	if ms := checkGolden(want, r.Name, r.Index, got); len(ms) != 0 {
		t.Fatalf("golden values themselves mismatch: %v", ms)
	}
	perturbed := *want
	perturbed.Runs = append([]golden.Run(nil), want.Runs...)
	pm := map[string]float64{}
	for k, v := range r.Metrics {
		pm[k] = v * 1.5
	}
	perturbed.Runs[0].Metrics = pm
	if ms := checkGolden(&perturbed, r.Name, r.Index, got); len(ms) == 0 {
		t.Error("perturbed golden baseline passed")
	}
	if ms := checkGolden(want, r.Name, r.Index+1000, got); len(ms) == 0 {
		t.Error("a cell missing from the golden passed")
	}
}

func TestBenchmarkJSONNamesTheReportedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if !slices.Equal(wl, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wl, workloads)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	var want []string
	for _, m := range endToEnd {
		want = append(want, m.name+" "+m.unit)
	}
	if !slices.Equal(e2e, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, want)
	}
	var pl, wantPL []string
	for _, m := range spec.PerLayer {
		pl = append(pl, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer {
		wantPL = append(wantPL, m.name+" "+m.unit)
	}
	if !slices.Equal(pl, wantPL) {
		t.Errorf("BENCHMARK.json per_layer %v, traced run reports %v", pl, wantPL)
	}
}
