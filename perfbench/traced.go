package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/golden"
)

// perLayer lists the traced run's metrics in report order, with units.
// BENCHMARK.json's per_layer list must name exactly these.
var perLayer = []struct{ name, unit string }{
	{"sim.self_s", "s"},
	{"sim.pending_max", "count"},
	{"sim.events", "count"},
	{"sim.events_per_s.f100", "1/s"},
	{"sim.events_per_s.f1000", "1/s"},
	{"sim.events_per_s.f5000", "1/s"},
	{"tcp.recv_s", "s"},
	{"tcp.cc_s", "s"},
	{"tcp.cc_calls", "count"},
	{"tcp.retx_frac", "frac"},
	{"bottleneck.enqueue_s", "s"},
	{"aqm.decide_s", "s"},
	{"aqm.update_s", "s"},
	{"aqm.calls", "count"},
	{"link.marks", "count"},
	{"link.drops", "count"},
	{"stats.add_s", "s"},
	{"stats.collect_s", "s"},
	{"runtime.alloc_mib", "MiB"},
	{"runtime.gc_cpu_frac", "frac"},
	{"ff.epochs", "count"},
	{"ff.zero_epochs", "count"},
	{"ff.skipped_frac", "frac"},
	{"ff.virtual_pkts", "count"},
	{"campaign.overhead_s", "s"},
	{"fluid.s", "s"},
	{"experiments.assemble_s", "s"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.events_rel_err", "frac"},
}

// maxTraceEventErr is the largest relative event-count difference between a
// traced shape and its production twin for the trace to count as valid.
const maxTraceEventErr = 0.01

// shapesFor returns the workload's traced shapes: representative cells the
// benchmark assembles itself, each naming its production twin.
func (b *bench) shapesFor() ([]shape, error) {
	seedOf := func(id string) (int64, error) {
		for _, c := range b.cells {
			if c.id == id {
				return c.seed, nil
			}
		}
		return 0, fmt.Errorf("trace: no production cell %s", id)
	}
	var shapes []shape
	switch b.workload {
	case "paper":
		tasks, err := tasksFor("sweep", gridSpec{Quick: true, TimeDiv: golden.TimeDiv})
		if err != nil {
			return nil, err
		}
		for _, want := range []struct {
			pair, aqm string
			mbps      float64
			rtt       time.Duration
		}{
			{"dctcp", "pi2", 40, 10 * time.Millisecond},
			{"ecn-cubic", "pie", 200, 100 * time.Millisecond},
		} {
			found := false
			for i, t := range tasks {
				p := t.Params
				if p["pair"] == want.pair && p["aqm"] == want.aqm && p["link_mbps"] == want.mbps &&
					p["rtt_ms"] == want.rtt.Seconds()*1e3 {
					twin := fmt.Sprintf("sweep:%s[%d]", t.Name, i)
					shapes = append(shapes, sweepShape(twin, campaign.DeriveSeed(golden.Seed, t.SeedIndex),
						want.pair, want.aqm, want.mbps, want.rtt))
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("trace: sweep cell %+v not in the matrix", want)
			}
		}
	case "scale":
		for _, a := range []string{"pie", "dualpi2"} {
			seed, err := seedOf("heavy/" + heavyCellID(a, 5000))
			if err != nil {
				return nil, err
			}
			shapes = append(shapes, heavyShape(a, 5000, scaleTimeDiv, seed))
		}
	case "scale_ff":
		seed, err := seedOf("heavy/" + heavyCellID("dualpi2", 100))
		if err != nil {
			return nil, err
		}
		shapes = append(shapes, heavyShape("dualpi2", 100, 0, seed))
	}
	return shapes, nil
}

// runtimeCounters reads cumulative allocation and CPU-time counters.
func runtimeCounters() (allocBytes, gcCPU, totalCPU float64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64()
}

// traced is the per-layer run. One untraced production pass supplies the
// twins' event counts and wall times, campaign overhead, events/s by flow
// count and the runtime's allocation and GC share; the traced shapes (and,
// on scale_ff, the fast-forward replicas) then run in passes until the time
// is spent, and each per-layer value is the median over those passes.
func (b *bench) traced(seconds time.Duration) (*report, map[string]any) {
	start := time.Now()
	hs := startHeapSampler()
	defer hs.stop()
	n := len(b.cells)

	alloc0, gc0, cpu0 := runtimeCounters()
	prod := make([]outcome, n)
	wall := make([]float64, n)
	for _, i := range passOrder(n, b.seed, -1) {
		wall[i], _, prod[i] = b.runCell(i, hs)
	}
	alloc1, gc1, cpu1 := runtimeCounters()
	byID := map[string]int{}
	for i, c := range b.cells {
		byID[c.id] = i
	}

	base := map[string]float64{
		"runtime.alloc_mib":   (alloc1 - alloc0) / (1 << 20),
		"runtime.gc_cpu_frac": safeDiv(gc1-gc0, cpu1-cpu0),
	}
	var overhead, fluid float64
	evs, evWall := map[int]float64{}, map[int]float64{}
	for i, c := range b.cells {
		if c.fluid {
			fluid += wall[i]
			continue
		}
		overhead += wall[i] - prod[i].taskS
		if c.flows > 0 {
			evs[c.flows] += float64(prod[i].events)
			evWall[c.flows] += wall[i]
		}
	}
	if fluid == 0 {
		// No analytic cells in this workload: time the fluid layer as a
		// probe, checked against its goldens like paper's cells.
		for _, c := range analyticCells() {
			t0 := time.Now()
			o := c.run()
			fluid += time.Since(t0).Seconds()
			b.attempted++
			if o.err != "" {
				b.fail(c.id + ": " + firstLine(o.err))
			} else if ms := c.check(o); len(ms) > 0 {
				b.fail(ms...)
			}
		}
	}
	base["campaign.overhead_s"] = overhead
	base["fluid.s"] = fluid
	for _, f := range []int{100, 1000, 5000} {
		base[fmt.Sprintf("sim.events_per_s.f%d", f)] = safeDiv(evs[f], evWall[f])
	}

	shapes, err := b.shapesFor()
	if err != nil {
		b.fail(err.Error())
	}
	var passes []map[string]float64
	var passS []float64
	tstart := time.Now()
	for p := 0; ; p++ {
		if p > 0 && time.Since(start)+time.Duration(median(passS)*float64(time.Second)) > seconds {
			break
		}
		t0 := time.Now()
		passes = append(passes, b.tracedPass(p, shapes, prod, byID))
		passS = append(passS, time.Since(t0).Seconds())
	}

	vals := map[string]float64{}
	for k, v := range base {
		vals[k] = v
	}
	for _, k := range sortedKeys(passes[0]) {
		xs := make([]float64, len(passes))
		for i, pv := range passes {
			xs[i] = pv[k]
		}
		vals[k] = median(xs)
	}
	fmt.Fprintf(b.out, "%s traced: %d shapes, %d traced passes in %.1f s (production pass first)\n",
		b.workload, len(shapes), len(passes), time.Since(tstart).Seconds())
	ms := map[string]metric{}
	for _, m := range perLayer {
		v, ok := vals[m.name]
		if !ok {
			b.fail("trace: metric " + m.name + " not measured")
		}
		ms[m.name] = metric{v, m.unit}
		fmt.Fprintf(b.out, "%-24s %14.6g %s\n", m.name, v, m.unit)
	}
	b.printFailures()
	rep := &report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: ms}
	return rep, map[string]any{"per_layer": vals, "traced_pass_s": passS, "failures": b.notes}
}

// tracedPass runs every traced shape once, each right after an untraced run
// of its production twin (the base of the tracing overhead), plus the
// fast-forward replicas on scale_ff, and returns that pass's per-layer
// values.
func (b *bench) tracedPass(p int, shapes []shape, prod []outcome, byID map[string]int) map[string]float64 {
	t := newTracer()
	if p == 0 {
		b.tracerSpans = t
	}
	v := map[string]float64{}
	var tracedWall, twinWall, maxErr float64
	var dataSegs, retx int64
	for _, sh := range shapes {
		twin, ok := byID[sh.twin]
		if !ok {
			b.fail("trace: no production twin " + sh.twin)
			continue
		}
		runtime.GC()
		t0 := time.Now()
		b.verify(twin, b.cells[twin].run())
		twinWall += time.Since(t0).Seconds()
		b.attempted++
		runtime.GC()
		r := runShape(sh, t)
		b.attempted++
		if r.err != nil {
			b.fail(sh.name + ": " + firstLine(r.err.Error()))
			continue
		}
		want := float64(prod[twin].events)
		relErr := math.Abs(float64(r.events)-want) / math.Max(want, 1)
		maxErr = math.Max(maxErr, relErr)
		if relErr > maxTraceEventErr {
			b.fail(fmt.Sprintf("%s: traced %d events, production twin %s %d (trace invalid)",
				sh.name, r.events, sh.twin, prod[twin].events))
		}
		tracedWall += r.wallS
		v["sim.self_s"] += r.simSelfS
		v["sim.pending_max"] = math.Max(v["sim.pending_max"], float64(r.pendingMax))
		v["sim.events"] += float64(r.events)
		v["experiments.assemble_s"] += r.assembleS
		v["link.marks"] += float64(r.marks)
		v["link.drops"] += float64(r.drops)
		dataSegs += r.dataSegs
		retx += r.retx
	}
	v["tcp.retx_frac"] = safeDiv(float64(retx), float64(dataSegs))
	v["trace.overhead_ratio"] = safeDiv(tracedWall, twinWall)
	v["trace.events_rel_err"] = maxErr

	var epochs, zero, virt, skipped, simTime float64
	for i, c := range b.cells {
		if b.workload != "scale_ff" || c.flows == 0 || strings.Contains(c.id, "dualpi2") {
			continue
		}
		aqmName := strings.Split(strings.TrimPrefix(c.id, "heavy/"), "/")[0]
		res, err := ffReplica(aqmName, c.flows, c.seed, t)
		b.attempted++
		if err != nil {
			b.fail(c.id + " ff replica: " + err.Error())
			continue
		}
		if res.Events != prod[i].events {
			b.fail(fmt.Sprintf("%s ff replica: %d events, production %d", c.id, res.Events, prod[i].events))
		}
		epochs += float64(res.FFEpochs)
		zero += float64(res.FFZeroEpochs)
		virt += float64(res.FFVirtualPkts)
		skipped += res.FFTime.Seconds()
		simTime += heavyDuration(0)
	}
	v["ff.epochs"], v["ff.zero_epochs"], v["ff.virtual_pkts"] = epochs, zero, virt
	v["ff.skipped_frac"] = safeDiv(skipped, simTime)

	sec := func(l int) float64 { return float64(t.self[l]) / 1e9 }
	v["bottleneck.enqueue_s"] = sec(lEnqueue)
	v["aqm.decide_s"] = sec(lAQMDecide)
	v["aqm.update_s"] = sec(lAQMUpdate)
	v["aqm.calls"] = float64(t.calls[lAQMDecide] + t.calls[lAQMUpdate])
	v["stats.add_s"] = sec(lStatsAdd)
	v["stats.collect_s"] = sec(lStatsCollect)
	v["tcp.recv_s"] = sec(lRecv)
	v["tcp.cc_s"] = sec(lCC)
	v["tcp.cc_calls"] = float64(t.calls[lCC])
	return v
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
