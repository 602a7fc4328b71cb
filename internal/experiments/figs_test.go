package experiments

import (
	"errors"
	"strings"
	"testing"
	"time"

	"pi2/internal/campaign"
)

var quick = Options{Quick: true}

func TestFig6PIOvershootsMoreThanPI2(t *testing.T) {
	r := Fig6(quick)
	// The figure's message: fixed-gain linear PI misbehaves at low load
	// (under-utilization, oscillating queue), while PI2 with the same
	// structure plus squaring holds the queue near target. Compare the
	// upward queue excursions after start-up.
	piMax := r.PI.DelaySeries.MaxAfter(5 * time.Second)
	pi2Max := r.PI2.DelaySeries.MaxAfter(5 * time.Second)
	t.Logf("pi max=%.1fms pi2 max=%.1fms", piMax*1e3, pi2Max*1e3)
	if pi2Max > 0.200 {
		t.Errorf("pi2 queue excursion %.0f ms, want bounded", pi2Max*1e3)
	}
	// PI2 must keep the mean near the 20 ms target.
	if m := r.PI2.Sojourn.Mean(); m < 0.004 || m > 0.045 {
		t.Errorf("pi2 mean queue delay %.1f ms, want near 20 ms", m*1e3)
	}
	if r.PI2.Utilization < 0.85 {
		t.Errorf("pi2 utilization %.3f", r.PI2.Utilization)
	}
}

func TestFig11AllLoadsControlled(t *testing.T) {
	r := Fig11(quick)
	for _, load := range r.Loads {
		pi2 := r.Runs[load]["pi2"]
		pie := r.Runs[load]["pie"]
		if pi2.Sojourn.Mean() > 0.080 {
			t.Errorf("%s: pi2 mean queue %.1f ms, want controlled", load, pi2.Sojourn.Mean()*1e3)
		}
		if pie.Sojourn.Mean() > 0.080 {
			t.Errorf("%s: pie mean queue %.1f ms, want controlled", load, pie.Sojourn.Mean()*1e3)
		}
		// TCP-only loads must keep the link busy.
		if load != "5 TCP + 2 UDP" && pi2.Utilization < 0.8 {
			t.Errorf("%s: pi2 utilization %.3f", load, pi2.Utilization)
		}
	}
	// The overload case must be dominated by (dropped) UDP: heavy AQM
	// dropping, and the queue still controlled.
	ov := r.Runs["5 TCP + 2 UDP"]["pi2"]
	if ov.DropsAQM == 0 {
		t.Error("UDP overload produced no AQM drops")
	}
}

func TestFig12PI2PeakBelowPIE(t *testing.T) {
	r := Fig12(quick)
	t.Logf("peaks after capacity drop: pie=%.0fms pi2=%.0fms", r.PeakPIEms, r.PeakPI2ms)
	if r.PeakPI2ms >= r.PeakPIEms {
		t.Errorf("pi2 peak %.0f ms not below pie peak %.0f ms (paper: 250 vs 510)",
			r.PeakPI2ms, r.PeakPIEms)
	}
	// Both controllers must eventually re-settle near target in the
	// final stage.
	lastPI2 := r.PI2.DelaySeries.MeanAfter(r.PI2.DelaySeries.Times[r.PI2.DelaySeries.Len()-1] * 4 / 5)
	if lastPI2 > 0.060 {
		t.Errorf("pi2 did not re-settle: %.1f ms", lastPI2*1e3)
	}
}

func TestFig13Controlled(t *testing.T) {
	r := Fig13(quick)
	if m := r.PI2.Sojourn.Mean(); m > 0.060 {
		t.Errorf("pi2 mean queue %.1f ms", m*1e3)
	}
	if r.PI2.Utilization < 0.85 {
		t.Errorf("pi2 utilization %.3f", r.PI2.Utilization)
	}
}

func TestFig14TargetsRespected(t *testing.T) {
	r := Fig14(quick)
	if len(r.Cases) != 4 {
		t.Fatalf("cases = %d", len(r.Cases))
	}
	for _, c := range r.Cases {
		// Median per-packet delay should track the configured target
		// within a loose factor (smaller target ⇒ smaller delay).
		med := c.PI2.Sojourn.Percentile(50)
		if med > 4*c.Target.Seconds()+0.010 {
			t.Errorf("target %v load %s: pi2 median %.1f ms", c.Target, c.Load, med*1e3)
		}
	}
	// The 5 ms target must actually produce a lower median than 20 ms.
	var m5, m20 float64
	for _, c := range r.Cases {
		if c.Load == "20 TCP" {
			if c.Target == 5*time.Millisecond {
				m5 = c.PI2.Sojourn.Percentile(50)
			} else {
				m20 = c.PI2.Sojourn.Percentile(50)
			}
		}
	}
	if m5 >= m20 {
		t.Errorf("5 ms target median %.1f ms >= 20 ms target median %.1f ms", m5*1e3, m20*1e3)
	}
}

func TestCoexistenceHeadline(t *testing.T) {
	// The paper's core coexistence claim at the 40 Mb/s / 10 ms center of
	// the grid: under PIE, DCTCP starves Cubic (ratio ~0.1); under PI2
	// the ratio is near 1. Run at full length for fidelity.
	o := Options{}
	pie := runSweepPoint(o, &campaign.TaskCtx{Seed: o.seed()}, 40, 10*time.Millisecond, "pie", "dctcp")
	pi2 := runSweepPoint(o, &campaign.TaskCtx{Seed: o.seed()}, 40, 10*time.Millisecond, "pi2", "dctcp")
	t.Logf("pie ratio=%.3f pi2 ratio=%.3f", pie.Ratio, pi2.Ratio)
	if pie.Ratio > 0.3 {
		t.Errorf("PIE ratio %.3f: DCTCP should starve Cubic", pie.Ratio)
	}
	if pi2.Ratio < 0.4 || pi2.Ratio > 2.5 {
		t.Errorf("PI2 ratio %.3f, want near 1", pi2.Ratio)
	}
	if pi2.Ratio < pie.Ratio*3 {
		t.Errorf("PI2 (%.3f) did not materially improve on PIE (%.3f)", pi2.Ratio, pie.Ratio)
	}
}

func TestCoexistenceControlPair(t *testing.T) {
	// Control case: Cubic vs ECN-Cubic behaves similarly under both AQMs
	// (Figure 15's black series).
	o := Options{Quick: true}
	pie := runSweepPoint(o, &campaign.TaskCtx{Seed: o.seed()}, 40, 10*time.Millisecond, "pie", "ecn-cubic")
	pi2 := runSweepPoint(o, &campaign.TaskCtx{Seed: o.seed()}, 40, 10*time.Millisecond, "pi2", "ecn-cubic")
	t.Logf("pie=%.3f pi2=%.3f", pie.Ratio, pi2.Ratio)
	for _, p := range []SweepPoint{pie, pi2} {
		if p.Ratio < 0.3 || p.Ratio > 3 {
			t.Errorf("%s ecn-cubic ratio %.3f, want same ballpark as 1", p.AQM, p.Ratio)
		}
	}
}

func TestSweepProbabilityCoupling(t *testing.T) {
	// Under PI2, the scalable marking probability must exceed the classic
	// probability (ps = 2·√pc > pc), visible in the Figure 17 data.
	o := Options{Quick: true}
	pt := runSweepPoint(o, &campaign.TaskCtx{Seed: o.seed()}, 40, 10*time.Millisecond, "pi2", "dctcp")
	if pt.ProbB.Mean <= pt.ProbA.Mean {
		t.Errorf("scalable prob %.4f <= classic prob %.4f", pt.ProbB.Mean, pt.ProbA.Mean)
	}
	if pt.ProbA.Mean <= 0 {
		t.Error("classic probability never rose")
	}
}

func TestFlowCombosBalanced(t *testing.T) {
	pts := FlowCombos(Options{Quick: true}, nil)
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	for _, p := range pts {
		if p.AQM != "pi2" || p.Pair != "dctcp" || p.NA == 0 || p.NB == 0 {
			continue
		}
		if p.RatioPerFlow < 0.2 || p.RatioPerFlow > 5 {
			t.Errorf("pi2 A%d-B%d per-flow ratio %.3f, wildly unbalanced", p.NA, p.NB, p.RatioPerFlow)
		}
	}
}

func TestTable1Printed(t *testing.T) {
	var b strings.Builder
	PrintTable1(&b)
	out := b.String()
	for _, want := range []string{"pi2", "pie", "0.3125", "20ms", "40000"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q", want)
		}
	}
}

func TestPrintersProduceRows(t *testing.T) {
	pts := []SweepPoint{{LinkMbps: 40, RTT: 10 * time.Millisecond, AQM: "pi2", Pair: "dctcp", Ratio: 1}}
	for name, fn := range map[string]func(*strings.Builder){
		"fig15": func(b *strings.Builder) { PrintFig15(b, pts) },
		"fig16": func(b *strings.Builder) { PrintFig16(b, pts) },
		"fig17": func(b *strings.Builder) { PrintFig17(b, pts) },
		"fig18": func(b *strings.Builder) { PrintFig18(b, pts) },
	} {
		var b strings.Builder
		fn(&b)
		if !strings.Contains(b.String(), "dctcp\tpi2\t40") {
			t.Errorf("%s: missing data row:\n%s", name, b.String())
		}
	}
	var b strings.Builder
	cp := []ComboPoint{{NA: 2, NB: 8, AQM: "pi2", Pair: "dctcp", RatioPerFlow: 1.1}}
	PrintFig19(&b, cp)
	PrintFig20(&b, cp)
	if !strings.Contains(b.String(), "A2-B8") {
		t.Error("combo printers missing row")
	}
}

func TestFactoryByName(t *testing.T) {
	for _, name := range []string{"pi2", "pie", "bare-pie", "pi", "red", "codel", "taildrop"} {
		if _, ok := FactoryByName(name, 20*time.Millisecond); !ok {
			t.Errorf("FactoryByName(%q) failed", name)
		}
	}
	if _, ok := FactoryByName("fq-codel", 0); ok {
		t.Error("unknown AQM resolved")
	}
	// A bottleneck factory brings its own queue management; an AQM
	// factory alongside it is a named error, not a silent override.
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, ErrBottleneckAndAQM) {
			t.Errorf("factory + NewAQM: recovered %v, want ErrBottleneckAndAQM", err)
		}
	}()
	sc := withDualPI2(testScenario(1))
	sc.NewAQM = PI2Factory(20 * time.Millisecond)
	Run(sc)
}

func TestRunDeterministic(t *testing.T) {
	run := func() float64 {
		r := Fig13(Options{Quick: true, Seed: 77})
		return r.PI2.Sojourn.Mean()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed diverged: %v vs %v", a, b)
	}
}

func TestRunDifferentSeedsDiffer(t *testing.T) {
	a := Fig13(Options{Quick: true, Seed: 1}).PI2.Sojourn.Mean()
	b := Fig13(Options{Quick: true, Seed: 2}).PI2.Sojourn.Mean()
	if a == b {
		t.Error("different seeds produced identical results (suspicious)")
	}
}
