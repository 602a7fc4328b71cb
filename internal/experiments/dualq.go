package experiments

import (
	"fmt"
	"io"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/core"
	"pi2/internal/fq"
	"pi2/internal/stats"
	"pi2/internal/traffic"
)

// DualQResult compares the paper's single-queue coupled AQM against the
// DualPI2 dual-queue extension it points toward (Section 7): same traffic,
// same coupling — the dual queue removes the Classic queuing delay from the
// Scalable flow's path.
type DualQResult struct {
	// Single is the single-queue run; LDelay/CDelay there are the same
	// shared queue measured per traffic class.
	SingleRatio                float64
	SingleLDelayMs             Quantiles
	SingleCDelayMs             Quantiles
	SingleUtil                 float64
	DualRatio                  float64
	DualLDelayMs, DualCDelayMs Quantiles
	DualUtil                   float64
	// JainSingle/JainDual summarize rate fairness across all flows.
	JainSingle, JainDual float64
}

// dualArm holds one arrangement's metrics — the shared shape of the
// single-queue, dual-queue and FQ arms.
type dualArm struct {
	Ratio              float64
	Jain               float64
	LDelayMs, CDelayMs Quantiles
	Util               float64
}

// DualQ runs NA Cubic + NB DCTCP flows through (a) the single-queue coupled
// PI2 and (b) DualPI2, at 40 Mb/s and 10 ms RTT. Both arms share one seed
// (SeedIndex 0) so they see identical traffic randomness; they run as two
// engine tasks and so in parallel when o.Jobs > 1.
func DualQ(o Options, na, nb int) *DualQResult {
	recs := campaign.Execute(dualqTasks(o, na, nb), o.execFor("dualq", gridSpec{NA: na, NB: nb}))
	res := &DualQResult{}
	if a, ok := recs[0].Result.(dualArm); ok {
		res.SingleRatio = a.Ratio
		res.SingleLDelayMs = a.LDelayMs
		res.SingleCDelayMs = a.CDelayMs
		res.SingleUtil = a.Util
		res.JainSingle = a.Jain
	}
	if a, ok := recs[1].Result.(dualArm); ok {
		res.DualRatio = a.Ratio
		res.DualLDelayMs = a.LDelayMs
		res.DualCDelayMs = a.CDelayMs
		res.DualUtil = a.Util
		res.JainDual = a.Jain
	}
	return res
}

// dualqTasks builds the paired single-queue/dual-queue arms.
func dualqTasks(o Options, na, nb int) []campaign.Task {
	return []campaign.Task{
		{
			Name: "dualq/single", SeedIndex: 0,
			Params: map[string]any{"na": na, "nb": nb},
			Run:    func(tc *campaign.TaskCtx) any { return dualQArm(o, tc, na, nb, false) },
		},
		{
			Name: "dualq/dual", SeedIndex: 0,
			Params: map[string]any{"na": na, "nb": nb},
			Run:    func(tc *campaign.TaskCtx) any { return dualQArm(o, tc, na, nb, true) },
		},
	}
}

// arrangementScenario is the traffic every queue arrangement carries: NA
// Cubic + NB DCTCP flows at 40 Mb/s and 10 ms RTT, on one shared seed.
func arrangementScenario(o Options, tc *campaign.TaskCtx, na, nb int) Scenario {
	dur := o.scale(100 * time.Second)
	return Scenario{
		Seed:        tc.Seed,
		Watch:       tc.Watch,
		LinkRateBps: 40e6,
		Bulk:        bulkPair(na, nb, 10*time.Millisecond),
		Duration:    dur,
		WarmUp:      dur * 2 / 5,
	}
}

// dualQArm runs one arrangement. The single shared queue reports its one
// sojourn distribution for both classes (that is the point: in a single
// queue they are identical); the DualPI2 arm reads the L/C split through
// the link its factory captured, with C given its own collector.
func dualQArm(o Options, tc *campaign.TaskCtx, na, nb int, dual bool) dualArm {
	sc := arrangementScenario(o, tc, na, nb)
	var dl *core.DualLink
	if dual {
		sc.NewBottleneck = DualPI2Bottleneck(core.DualConfig{}, func(d *core.DualLink) {
			dl = d
			d.CSojourn = &stats.Sample{}
		})
	} else {
		sc.NewAQM = PI2Factory(20 * time.Millisecond)
	}
	r := Run(sc)
	arm := dualArm{
		Ratio:    perFlowRatio(r),
		Jain:     jainOf(r),
		LDelayMs: scaleQ(quantiles(r.Sojourn), 1e3),
		Util:     r.Utilization,
	}
	arm.CDelayMs = arm.LDelayMs
	if dl != nil {
		arm.CDelayMs = scaleQ(quantiles(dl.CSojourn), 1e3)
	}
	return arm
}

func bulkPair(na, nb int, rtt time.Duration) []traffic.BulkFlowSpec {
	var out []traffic.BulkFlowSpec
	if na > 0 {
		out = append(out, traffic.BulkFlowSpec{CC: "cubic", Count: na, RTT: rtt, Label: "A"})
	}
	if nb > 0 {
		out = append(out, traffic.BulkFlowSpec{CC: "dctcp", Count: nb, RTT: rtt, Label: "B"})
	}
	return out
}

func perFlowRatio(r *Result) float64 {
	var a, b float64
	for _, g := range r.Groups {
		switch g.Label {
		case "A":
			a = g.MeanPerFlow()
		case "B":
			b = g.MeanPerFlow()
		}
	}
	if b == 0 {
		return 0
	}
	return a / b
}

func jainOf(r *Result) float64 {
	var rates []float64
	for _, g := range r.Groups {
		rates = append(rates, g.FlowRates...)
	}
	return stats.JainIndex(rates)
}

func scaleQ(q Quantiles, f float64) Quantiles {
	q.P1 *= f
	q.P25 *= f
	q.Mean *= f
	q.P99 *= f
	return q
}

// FQRow holds the FQ-CoDel arrangement's results for the same traffic.
type FQRow struct {
	Ratio   float64
	Jain    float64
	DelayMs Quantiles
	Util    float64
}

// FQArrangement runs the same NA Cubic + NB DCTCP traffic through an
// FQ-CoDel bottleneck — the per-flow-queuing alternative the paper's
// introduction weighs against single-queue designs. Isolation gives both
// flows their fair share with low delay, at the cost of per-flow state
// and transport-header inspection in the network. It runs as one engine
// task with SeedIndex 0, so it sees the same traffic seed as DualQ's arms.
func FQArrangement(o Options, na, nb int) FQRow {
	recs := campaign.Execute(fqTasks(o, na, nb), o.execFor("dualq-fq", gridSpec{NA: na, NB: nb}))
	row, _ := recs[0].Result.(FQRow)
	return row
}

// fqTasks builds the FQ-CoDel arrangement's single-cell matrix.
func fqTasks(o Options, na, nb int) []campaign.Task {
	return []campaign.Task{{
		Name: "dualq/fq-codel", SeedIndex: 0,
		Params: map[string]any{"na": na, "nb": nb},
		Run:    func(tc *campaign.TaskCtx) any { return fqArrangementArm(o, tc, na, nb) },
	}}
}

func fqArrangementArm(o Options, tc *campaign.TaskCtx, na, nb int) FQRow {
	sc := arrangementScenario(o, tc, na, nb)
	sc.NewBottleneck = FQCoDelBottleneck(fq.Config{})
	r := Run(sc)
	return FQRow{
		Ratio:   perFlowRatio(r),
		Jain:    jainOf(r),
		DelayMs: scaleQ(quantiles(r.Sojourn), 1e3),
		Util:    r.Utilization,
	}
}

// PrintArrangements writes the three-way comparison: coupled single queue,
// DualPI2 dual queue, and FQ-CoDel per-flow queues.
func PrintArrangements(w io.Writer, dq *DualQResult, fqr FQRow) {
	fmt.Fprintln(w, "# Queue arrangements under 1 Cubic + 1 DCTCP (40 Mb/s, RTT 10 ms)")
	fmt.Fprintln(w, "arrangement\tratio\tjain\tscalable_delay_ms\tclassic_delay_ms\tutil\tnetwork-needs")
	fmt.Fprintf(w, "single-pi2\t%.3f\t%.3f\t%.2f\t%.2f\t%.3f\tECN classifier only\n",
		dq.SingleRatio, dq.JainSingle, dq.SingleLDelayMs.Mean, dq.SingleCDelayMs.Mean, dq.SingleUtil)
	fmt.Fprintf(w, "dualpi2\t%.3f\t%.3f\t%.2f\t%.2f\t%.3f\tECN classifier + 2 queues\n",
		dq.DualRatio, dq.JainDual, dq.DualLDelayMs.Mean, dq.DualCDelayMs.Mean, dq.DualUtil)
	fmt.Fprintf(w, "fq-codel\t%.3f\t%.3f\t%.2f\t%.2f\t%.3f\tper-flow state + 5-tuple inspection\n",
		fqr.Ratio, fqr.Jain, fqr.DelayMs.Mean, fqr.DelayMs.Mean, fqr.Util)
}

// Print writes the comparison table.
func (r *DualQResult) Print(w io.Writer) {
	fmt.Fprintln(w, "# DualPI2 extension: single coupled queue vs dual queue (40 Mb/s, RTT 10 ms)")
	fmt.Fprintln(w, "arrangement\tratio\tjain\tL_mean_ms\tL_p99_ms\tC_mean_ms\tC_p99_ms\tutil")
	fmt.Fprintf(w, "single-queue\t%.3f\t%.3f\t%.2f\t%.2f\t%.2f\t%.2f\t%.3f\n",
		r.SingleRatio, r.JainSingle,
		r.SingleLDelayMs.Mean, r.SingleLDelayMs.P99,
		r.SingleCDelayMs.Mean, r.SingleCDelayMs.P99, r.SingleUtil)
	fmt.Fprintf(w, "dualpi2\t%.3f\t%.3f\t%.2f\t%.2f\t%.2f\t%.2f\t%.3f\n",
		r.DualRatio, r.JainDual,
		r.DualLDelayMs.Mean, r.DualLDelayMs.P99,
		r.DualCDelayMs.Mean, r.DualCDelayMs.P99, r.DualUtil)
	fmt.Fprintln(w, "# the dual queue holds Scalable (L) delay near zero while the Classic (C)")
	fmt.Fprintln(w, "# queue keeps its 20 ms target — the step the paper's conclusion points to")
}
