package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"pi2/internal/campaign"
	_ "pi2/internal/experiments" // registers every experiment and task source
	"pi2/internal/golden"
)

// Workload scales. scaleTimeDiv shortens the heavy tier's 20 s cells to
// 0.25 s so one pass over nine cells takes about 1.2 s on a 2-core host and
// a run fits 20 or more passes: on a shared host one cell's time varies by
// 15-20% from pass to pass, so only the median of many passes repeats.
// scale_ff keeps the full duration, because fast-forward only pays off once
// flows reach steady state.
const (
	scaleTimeDiv = 80
	// setupTimeDiv cuts a cell's simulated duration to tens of
	// microseconds: the run builds everything, processes the events at
	// t=0 (flow starts, the first window) and stops.
	setupTimeDiv = 1_000_000
)

// outcome is what one production cell run returns.
type outcome struct {
	metrics map[string]float64 // the cell's scalar fingerprint
	digest  string             // exact encoding of the output, for pass-to-pass identity
	seed    int64              // the seed the cell ran with (0 for analytic cells)
	events  uint64             // simulator events (0 for analytic cells)
	taskS   float64            // seconds inside Task.Run (the campaign record's wall time)
	result  any                // the cell's result value (campaign cells only)
	err     string             // cell error, auditor panic included
}

// cell is one operation of a workload: a production campaign cell driven
// through public entry points, with its check against a reference.
type cell struct {
	id    string
	flows int  // bulk-flow count, for events/s grouping (0 = not a heavy cell)
	fluid bool // analytic experiment: no simulator, no setup twin
	run   func() outcome
	// setup runs the same cell with its simulated duration cut to about
	// zero (nil for analytic cells, which build no simulation).
	setup func() error
	// check lists the output's mismatches against the reference.
	check func(outcome) []string
	// seed is the cell's derived simulation seed (0 for analytic cells);
	// traced shapes rebuild the cell with it.
	seed int64
}

// gridSpec mirrors the JSON wire form the experiments package's task
// sources accept (campaign.LookupSource): the knobs that shape a matrix.
type gridSpec struct {
	Quick   bool `json:"quick,omitempty"`
	TimeDiv int  `json:"timediv,omitempty"`
	FF      bool `json:"ff,omitempty"`
	NA      int  `json:"na,omitempty"`
	NB      int  `json:"nb,omitempty"`
}

// tasksFor rebuilds a family's task matrix from its registered source.
func tasksFor(family string, spec gridSpec) ([]campaign.Task, error) {
	src, ok := campaign.LookupSource(family)
	if !ok {
		return nil, fmt.Errorf("no task source %q", family)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return src(raw)
}

// execOpts runs one cell the way a serial campaign does: base seed 1, no
// watchdog, no retries, on the caller's goroutine.
var execOpts = campaign.ExecOptions{Jobs: 1, BaseSeed: golden.Seed}

// runTask executes one production cell and reduces its record.
func runTask(t campaign.Task, index int) outcome {
	rec := campaign.RunOne(t, index, execOpts)
	m := finite(rec.Metrics)
	return outcome{metrics: m, digest: digest(m), seed: rec.Seed, events: rec.Events,
		taskS: rec.WallMs / 1e3, result: rec.Result, err: rec.Err}
}

// setupOf returns the setup twin of a task: the same cell from a matrix
// built at setupTimeDiv.
func setupOf(t campaign.Task, index int) func() error {
	return func() error {
		rec := campaign.RunOne(t, index, execOpts)
		if rec.Err != "" {
			return fmt.Errorf("setup %s[%d]: %s", t.Name, index, rec.Err)
		}
		return nil
	}
}

// finite drops NaN/Inf metrics, as golden captures do.
func finite(m map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out[k] = v
		}
	}
	return out
}

// digest encodes a metric map exactly (bit patterns, sorted keys), so two
// runs of one cell can be required to agree to the last bit.
func digest(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%x;", k, math.Float64bits(m[k]))
	}
	return b.String()
}

// paperFamilies maps a golden experiment to the task families its capture
// runs. Every other simulation experiment with a baseline runs the family
// of its own name; dualq and its FQ arm take the (1, 1) flow split the
// registry passes.
var paperFamilies = map[string][]string{
	"arrangements": {"dualq", "dualq-fq"},
}

// paperCells is every cell of `pi2bench -check`: each registered experiment
// with an embedded golden baseline, at golden scale. Simulation
// experiments contribute one cell per campaign task; analytic ones
// (fingerprinted by output hash) are one cell each.
func paperCells() ([]*cell, error) {
	var cells []*cell
	for _, name := range campaign.Names() {
		want, err := golden.Baseline(name, "")
		if err != nil {
			continue // no embedded baseline: not part of -check
		}
		if len(want.Runs) == 0 {
			cells = append(cells, analyticCell(name, want))
			continue
		}

		fams := paperFamilies[name]
		if fams == nil {
			fams = []string{name}
		}
		covered := map[string]bool{}
		for _, fam := range fams {
			spec := gridSpec{Quick: true, TimeDiv: golden.TimeDiv}
			if strings.HasPrefix(fam, "dualq") {
				spec.NA, spec.NB = 1, 1
			}
			tasks, err := tasksFor(fam, spec)
			if err != nil {
				return nil, fmt.Errorf("paper %s: %w", name, err)
			}
			spec.TimeDiv = setupTimeDiv
			setups, err := tasksFor(fam, spec)
			if err != nil || len(setups) != len(tasks) {
				return nil, fmt.Errorf("paper %s: setup matrix of %s: %v", name, fam, err)
			}
			for i, t := range tasks {
				id := fmt.Sprintf("%s[%d]", t.Name, i)
				covered[id] = true
				cells = append(cells, &cell{
					id:    name + ":" + id,
					run:   func() outcome { return runTask(t, i) },
					setup: setupOf(setups[i], i),
					check: func(o outcome) []string { return checkGolden(want, t.Name, i, o) },
					seed:  campaign.DeriveSeed(golden.Seed, t.SeedIndex),
				})
			}
		}
		for _, r := range want.Runs {
			if id := fmt.Sprintf("%s[%d]", r.Name, r.Index); !covered[id] {
				return nil, fmt.Errorf("paper %s: golden cell %s has no task", name, id)
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("paper: no embedded golden baselines")
	}
	return cells, nil
}

// analyticCells is the paper workload's analytic experiments alone: the
// fluid-model layer, which traced runs of the other workloads time as a
// probe so fluid.s is measured on every workload.
func analyticCells() []*cell {
	var cells []*cell
	for _, name := range campaign.Names() {
		if want, err := golden.Baseline(name, ""); err == nil && len(want.Runs) == 0 {
			cells = append(cells, analyticCell(name, want))
		}
	}
	return cells
}

// analyticCell captures an analytic experiment (Bode margins, Table 1)
// whose golden fingerprint is its printed output's hash.
func analyticCell(name string, want *golden.Fingerprint) *cell {
	return &cell{
		id:    name,
		fluid: true,
		run: func() outcome {
			fp, err := golden.Capture(name, golden.Exec{})
			if err != nil {
				return outcome{err: err.Error()}
			}
			return outcome{digest: fp.OutputSHA256, result: fp}
		},
		check: func(o outcome) []string {
			fp, _ := o.result.(*golden.Fingerprint)
			if fp == nil {
				return []string{name + ": no capture"}
			}
			return mismatchStrings(golden.Compare(want, fp))
		},
	}
}

// checkGolden compares one campaign cell against its run in the golden
// fingerprint with golden.Compare (the -check tolerance bands).
func checkGolden(want *golden.Fingerprint, name string, index int, o outcome) []string {
	one := *want
	one.Runs = nil
	for _, r := range want.Runs {
		if r.Name == name && r.Index == index {
			one.Runs = append(one.Runs, r)
		}
	}
	got := &golden.Fingerprint{Experiment: want.Experiment, TimeDiv: golden.TimeDiv, Seed: golden.Seed,
		Runs: []golden.Run{{Name: name, Index: index, Seed: o.seed, Metrics: o.metrics}}}
	if len(one.Runs) == 0 {
		return []string{fmt.Sprintf("%s[%d]: cell not in golden %s", name, index, want.Experiment)}
	}
	return mismatchStrings(golden.Compare(&one, got))
}

func mismatchStrings(ms []golden.Mismatch) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.String()
	}
	return out
}
