package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/stats"
)

// gridSpec is the wire form of the Options fields a task builder depends
// on. A fleet worker receives (family, gridSpec) and rebuilds the exact
// task matrix the coordinator built — closures cannot cross a process
// boundary, but the recipe for them can. Only knobs that change the
// matrix or the cells' behavior belong here; execution-side knobs (jobs,
// seeds, watchdog, shards) travel in the fleet init envelope instead.
type gridSpec struct {
	Quick    bool     `json:"quick,omitempty"`
	TimeDiv  int      `json:"timediv,omitempty"`
	FF       bool     `json:"ff,omitempty"`
	Reps     int      `json:"reps,omitempty"`
	TargetNs int64    `json:"target_ns,omitempty"`
	NA       int      `json:"na,omitempty"`
	NB       int      `json:"nb,omitempty"`
	Combos   [][2]int `json:"combos,omitempty"`
}

// options reconstructs the Options a builder needs on the worker side.
func (g gridSpec) options() Options {
	return Options{
		Quick:       g.Quick,
		TimeDiv:     g.TimeDiv,
		FastForward: g.FF,
		Reps:        g.Reps,
		Target:      time.Duration(g.TargetNs),
	}
}

// execFor assembles executor options for one grid family. The (family,
// spec) identity is attached whenever anything needs it: a dispatcher
// (worker processes rebuild the matrix from it), a journal (records are
// keyed by it) or a resume set (completed cells are looked up by it).
// Plain in-process runs skip the spec marshalling entirely.
func (o Options) execFor(family string, spec gridSpec) campaign.ExecOptions {
	e := o.exec()
	if o.Dispatch == nil && o.Journal == nil && o.Resume == nil {
		return e
	}
	spec.Quick = o.Quick
	spec.TimeDiv = o.TimeDiv
	spec.FF = o.FastForward
	spec.Reps = o.Reps
	spec.TargetNs = int64(o.Target)
	b, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("experiments: marshal %s grid spec: %v", family, err))
	}
	e.Family = family
	e.Spec = b
	e.Dispatch = o.Dispatch
	return e
}

// streamPoints streams a grid of one-point cells and folds each record into
// its index. A failed cell gets the blank point built from its params; its
// name is listed in matrix order (deterministic under any completion
// order) and reported in the error, while the other points stay usable.
func streamPoints[P any](tasks []campaign.Task, e campaign.ExecOptions, family string,
	blank func(params map[string]any) P, name func(P) string) ([]P, []string, error) {
	out := make([]P, len(tasks))
	bad := make([]bool, len(tasks))
	campaign.ExecuteStream(tasks, e, func(rec campaign.RunRecord) {
		p, ok := rec.Result.(P)
		if rec.Err != "" || !ok {
			bad[rec.Index] = true
			p = blank(rec.Params)
		}
		out[rec.Index] = p
	})
	var failed []string
	for i, b := range bad {
		if b {
			failed = append(failed, name(out[i]))
		}
	}
	if len(failed) > 0 {
		return out, failed, errors.New(family + " cells failed: " + fmt.Sprint(failed))
	}
	return out, nil, nil
}

// groupFold streams a campaign whose matrix is organized as consecutive
// rep groups (indices [g*reps, (g+1)*reps) belong to group g) and calls
// finalize once per group, with that group's records in rep order, as
// soon as the group completes. Folding per group in rep order — not in
// arrival order — keeps float aggregation byte-identical at any
// parallelism, while retaining at most O(workers) complete groups.
func groupFold(tasks []campaign.Task, opt campaign.ExecOptions, reps int, finalize func(group int, recs []campaign.RunRecord)) {
	pending := make(map[int][]campaign.RunRecord)
	got := make(map[int]int)
	campaign.ExecuteStream(tasks, opt, func(rec campaign.RunRecord) {
		g := rec.Index / reps
		buf := pending[g]
		if buf == nil {
			buf = make([]campaign.RunRecord, reps)
			pending[g] = buf
		}
		buf[rec.Index%reps] = rec
		got[g]++
		if got[g] == reps {
			delete(pending, g)
			delete(got, g)
			finalize(g, buf)
		}
	})
}

// gridSource adapts a builder over gridSpec into a campaign.TaskSource.
func gridSource(build func(gridSpec) []campaign.Task) campaign.TaskSource {
	return func(spec []byte) ([]campaign.Task, error) {
		var g gridSpec
		if len(spec) > 0 {
			if err := json.Unmarshal(spec, &g); err != nil {
				return nil, fmt.Errorf("experiments: grid spec: %w", err)
			}
		}
		return build(g), nil
	}
}

func init() {
	campaign.RegisterSource("fig6", gridSource(func(g gridSpec) []campaign.Task { return fig6Tasks(g.options()) }))
	campaign.RegisterSource("fig11", gridSource(func(g gridSpec) []campaign.Task { return fig11Tasks(g.options()) }))
	campaign.RegisterSource("fig12", gridSource(func(g gridSpec) []campaign.Task { return fig12Tasks(g.options()) }))
	campaign.RegisterSource("fig13", gridSource(func(g gridSpec) []campaign.Task { return fig13Tasks(g.options()) }))
	campaign.RegisterSource("fig14", gridSource(func(g gridSpec) []campaign.Task { return fig14Tasks(g.options()) }))
	campaign.RegisterSource("fct", gridSource(func(g gridSpec) []campaign.Task { return fctTasks(g.options()) }))
	campaign.RegisterSource("sweep", gridSource(func(g gridSpec) []campaign.Task { return sweepTasks(g.options()) }))
	campaign.RegisterSource("combos", gridSource(func(g gridSpec) []campaign.Task { return combosTasks(g.options(), g.Combos) }))
	campaign.RegisterSource("rttfair", gridSource(func(g gridSpec) []campaign.Task { return rttfairTasks(g.options()) }))
	campaign.RegisterSource("dualq", gridSource(func(g gridSpec) []campaign.Task { return dualqTasks(g.options(), g.NA, g.NB) }))
	campaign.RegisterSource("dualq-fq", gridSource(func(g gridSpec) []campaign.Task { return fqTasks(g.options(), g.NA, g.NB) }))
	campaign.RegisterSource("chaos", gridSource(func(g gridSpec) []campaign.Task { return chaosTasks(g.options()) }))
	campaign.RegisterSource("interop", gridSource(func(g gridSpec) []campaign.Task { return interopTasks(g.options()) }))
	campaign.RegisterSource("heavy", gridSource(func(g gridSpec) []campaign.Task { return heavyTasks(g.options()) }))

	// Concrete result types that cross the coordinator/worker pipe inside
	// RunRecord.Result (an interface) — gob needs them registered on both
	// sides, and coordinator and worker share this binary and this init.
	campaign.RegisterWireType(&Result{})
	campaign.RegisterWireType(HeavyPoint{})
	campaign.RegisterWireType(SweepPoint{})
	campaign.RegisterWireType(ComboPoint{})
	campaign.RegisterWireType(ChaosPoint{})
	campaign.RegisterWireType(InteropPoint{})
	campaign.RegisterWireType(RTTFairPoint{})
	campaign.RegisterWireType(dualArm{})
	campaign.RegisterWireType(FQRow{})
	// Quantiler implementations carried inside Result.
	campaign.RegisterWireType(&stats.Sample{})
	campaign.RegisterWireType(&stats.LogHistogram{})
}
