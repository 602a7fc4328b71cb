package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"pi2/internal/campaign"
	"pi2/internal/golden"
)

// heavyCellID names a heavy-tier cell by its coordinates.
func heavyCellID(aqm string, flows int) string { return fmt.Sprintf("%s/%d", aqm, flows) }

// scaleGrid and scaleFFGrid select cells of the heavy tier. scale_ff runs
// DualPI2 at 100 flows, not 1000: fast-forward refuses DualPI2 either way
// (the signal this workload keeps), but the 1000-flow packet-mode cell
// takes 6.4 s, which would leave too few passes for a steady median.
var (
	scaleGrid = map[string][]int{
		"pie": {100, 1000, 5000}, "pi2": {100, 1000, 5000}, "dualpi2": {100, 1000, 5000},
	}
	scaleFFGrid = map[string][]int{
		"pie": {1000, 5000}, "pi2": {1000, 5000}, "dualpi2": {100},
	}
)

// heavyTask is one selected cell of a heavy matrix with its matrix index.
type heavyTask struct {
	id    string
	flows int
	index int
	task  campaign.Task
}

// heavyTasks returns the grid's cells of the heavy matrix built from spec,
// in matrix order.
func heavyTasks(spec gridSpec, grid map[string][]int) ([]heavyTask, error) {
	tasks, err := tasksFor("heavy", spec)
	if err != nil {
		return nil, err
	}
	var out []heavyTask
	for i, t := range tasks {
		aqm, _ := t.Params["aqm"].(string)
		flows, _ := t.Params["flows"].(int)
		for _, n := range grid[aqm] {
			if n == flows {
				out = append(out, heavyTask{id: heavyCellID(aqm, flows), flows: flows, index: i, task: t})
			}
		}
	}
	want := 0
	for _, ns := range grid {
		want += len(ns)
	}
	if len(out) != want {
		return nil, fmt.Errorf("heavy matrix has %d of the %d selected cells", len(out), want)
	}
	return out, nil
}

// heavyCells builds the cells of the scale or scale_ff workload.
func heavyCells(workload string) ([]*cell, error) {
	spec, grid, check := gridSpec{TimeDiv: scaleTimeDiv}, scaleGrid, checkTolerance
	if workload == "scale_ff" {
		spec, grid, check = gridSpec{FF: true}, scaleFFGrid, checkFFFidelity
	}
	ref, err := loadRefs(workload)
	if err != nil {
		return nil, err
	}
	hts, err := heavyTasks(spec, grid)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	setupSpec := spec
	setupSpec.TimeDiv = setupTimeDiv
	setups, err := heavyTasks(setupSpec, grid)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", workload, err)
	}
	var cells []*cell
	for k, ht := range hts {
		want, ok := ref.Cells[ht.id]
		if !ok {
			return nil, fmt.Errorf("%s: no reference for cell %s", workload, ht.id)
		}
		cells = append(cells, &cell{
			id:    "heavy/" + ht.id,
			flows: ht.flows,
			run:   func() outcome { return runTask(ht.task, ht.index) },
			setup: setupOf(setups[k].task, setups[k].index),
			check: func(o outcome) []string { return check(ht.id, want, o) },
			seed:  campaign.DeriveSeed(golden.Seed, ht.task.SeedIndex),
		})
	}
	return cells, nil
}

// refCell is one stored reference fingerprint.
type refCell struct {
	Seed    int64              `json:"seed"`
	Metrics map[string]float64 `json:"metrics"`
}

// refFile is a workload's stored references (refs/<workload>.json).
type refFile struct {
	Workload string             `json:"workload"`
	Note     string             `json:"note"`
	Cells    map[string]refCell `json:"cells"`
}

//go:embed refs/*.json
var refsFS embed.FS

func loadRefs(workload string) (*refFile, error) {
	raw, err := refsFS.ReadFile("refs/" + workload + ".json")
	if err != nil {
		return nil, fmt.Errorf("%s: no stored references (run with -update-refs): %w", workload, err)
	}
	rf := &refFile{}
	if err := json.Unmarshal(raw, rf); err != nil {
		return nil, fmt.Errorf("%s: corrupt references: %w", workload, err)
	}
	return rf, nil
}

// checkTolerance compares a scale cell with its reference using the golden
// harness's per-metric bands (golden.ToleranceFor).
func checkTolerance(id string, want refCell, o outcome) []string {
	var out []string
	if o.seed != want.Seed {
		out = append(out, fmt.Sprintf("%s: seed %d, reference %d", id, o.seed, want.Seed))
	}
	keys := make([]string, 0, len(want.Metrics))
	for k := range want.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := o.metrics[k]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("%s: %s missing", id, k))
		case !golden.ToleranceFor(k).Within(want.Metrics[k], g):
			out = append(out, fmt.Sprintf("%s: %s = %.6g, reference %.6g", id, k, g, want.Metrics[k]))
		}
	}
	for k := range o.metrics {
		if _, ok := want.Metrics[k]; !ok {
			out = append(out, fmt.Sprintf("%s: %s not in reference", id, k))
		}
	}
	return out
}

// Fast-forward fidelity bounds against the packet-mode twin, as the
// experiments package's twin test states them: aggregate goodput (the
// link's busy fraction here) within 5%, mean queue delay within 25%, and
// fairness no worse than 0.02 below the packet run.
const (
	ffGoodputRel = 0.05
	ffDelayRel   = 0.25
	ffJainSlack  = 0.02
)

// checkFFFidelity compares a scale_ff cell with its packet-mode reference.
func checkFFFidelity(id string, want refCell, o outcome) []string {
	var out []string
	if o.seed != want.Seed {
		out = append(out, fmt.Sprintf("%s: seed %d, packet twin %d", id, o.seed, want.Seed))
	}
	get := func(k string) (g, w float64, ok bool) {
		g, okg := o.metrics[k]
		w, okw := want.Metrics[k]
		if !okg || !okw {
			out = append(out, fmt.Sprintf("%s: %s missing", id, k))
		}
		return g, w, okg && okw
	}
	if g, w, ok := get("flows"); ok && g != w {
		out = append(out, fmt.Sprintf("%s: flows %v, packet twin %v", id, g, w))
	}
	if g, w, ok := get("util"); ok && math.Abs(g-w) > ffGoodputRel*w {
		out = append(out, fmt.Sprintf("%s: util %.4f vs packet twin %.4f (> %.0f%%)", id, g, w, ffGoodputRel*100))
	}
	if g, w, ok := get("q_mean_ms"); ok && math.Abs(g-w) > ffDelayRel*w {
		out = append(out, fmt.Sprintf("%s: q_mean_ms %.3f vs packet twin %.3f (> %.0f%%)", id, g, w, ffDelayRel*100))
	}
	if g, w, ok := get("jain"); ok && g < w-ffJainSlack {
		out = append(out, fmt.Sprintf("%s: jain %.4f below packet twin %.4f - %.2f", id, g, w, ffJainSlack))
	}
	return out
}

// updateRefs regenerates refs/scale.json (this commit's packet-mode
// fingerprints at the scale workload's TimeDiv) and refs/scale_ff.json
// (full-duration packet-mode twins of the scale_ff cells, each run with its
// fast-forward cell's seed).
func updateRefs(dir string) error {
	scale, err := heavyTasks(gridSpec{TimeDiv: scaleTimeDiv}, scaleGrid)
	if err != nil {
		return err
	}
	rf := &refFile{Workload: "scale", Cells: map[string]refCell{},
		Note: fmt.Sprintf("heavy tier, packet mode, TimeDiv %d, base seed %d; compared with golden.ToleranceFor", scaleTimeDiv, golden.Seed)}
	for _, ht := range scale {
		o := runTask(ht.task, ht.index)
		if o.err != "" {
			return fmt.Errorf("scale %s: %s", ht.id, o.err)
		}
		rf.Cells[ht.id] = refCell{Seed: o.seed, Metrics: o.metrics}
		fmt.Fprintf(os.Stderr, "refs: scale %s done\n", ht.id)
	}
	if err := saveRefs(dir, rf); err != nil {
		return err
	}

	ff, err := heavyTasks(gridSpec{FF: true}, scaleFFGrid)
	if err != nil {
		return err
	}
	pkt, err := heavyTasks(gridSpec{}, scaleFFGrid)
	if err != nil {
		return err
	}
	rf = &refFile{Workload: "scale_ff", Cells: map[string]refCell{},
		Note: "packet-mode twins of the scale_ff cells at full duration, run with the fast-forward cells' seeds; compared within the ff fidelity bounds"}
	for _, ht := range ff {
		var twin *heavyTask
		for k := range pkt {
			if pkt[k].id == ht.id {
				twin = &pkt[k]
			}
		}
		if twin == nil {
			return fmt.Errorf("scale_ff %s: no packet-mode twin", ht.id)
		}
		t := twin.task
		t.SeedIndex = ht.task.SeedIndex
		o := runTask(t, ht.index)
		if o.err != "" {
			return fmt.Errorf("scale_ff twin %s: %s", ht.id, o.err)
		}
		rf.Cells[ht.id] = refCell{Seed: o.seed, Metrics: o.metrics}
		fmt.Fprintf(os.Stderr, "refs: scale_ff twin %s done\n", ht.id)
	}
	return saveRefs(dir, rf)
}

func saveRefs(dir string, rf *refFile) error {
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, rf.Workload+".json"), append(raw, '\n'), 0o644)
}

// heavyDuration mirrors the heavy tier's cell length at a TimeDiv.
func heavyDuration(timeDiv int) float64 {
	d := 20.0
	if timeDiv > 0 {
		d /= float64(timeDiv)
	}
	return d
}
