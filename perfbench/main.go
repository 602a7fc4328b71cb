// Command perfbench is the repository's benchmark. It drives the simulator
// from outside, through public entry points only, and measures the cost of
// the campaigns this repository runs: the paper's golden grid (paper), the
// heavy flow-count tier in packet mode (scale) and the heavy tier under
// fast-forward (scale_ff).
//
// Usage (from the repository root; run.sh builds and calls this):
//
//	perfbench --workload paper|scale|scale_ff --seed N --seconds S --trace 0|1 [--out dir]
//	perfbench -update-refs perfbench/refs
//
// Cells run one at a time on one goroutine, round robin over passes; a
// warm-up pass is discarded and each cell is reported as its median over
// the timed passes. --trace 0 prints the end-to-end metrics, --trace 1 the
// per-layer split from a separate traced run. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// See README.md for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = []string{"paper", "scale", "scale_ff"}

// endToEnd lists the untraced run's metrics in report order, with units.
// BENCHMARK.json's end_to_end list must name exactly these.
var endToEnd = []struct{ name, unit string }{
	{"cell_s", "s"},
	{"long_pole_s", "s"},
	{"setup_s", "s"},
	{"peak_heap_mib", "MiB"},
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "seed for the order cells run in within each pass")
	seconds := flag.Float64("seconds", 10, "how long the timed passes run")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := flag.String("out", "", "directory for the run's detail JSON and trace spans (optional)")
	refsDir := flag.String("update-refs", "", "regenerate the stored scale/scale_ff references into this directory and exit")
	flag.Parse()

	if *refsDir != "" {
		if err := updateRefs(*refsDir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if !validWorkload(*workload) || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cells, err := buildCells(*workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	host := hostContext()
	fmt.Printf("host: %s\n", host)

	b := &bench{workload: *workload, cells: cells, seed: *seed, out: os.Stdout}
	var rep *report
	var detail map[string]any
	if *traceFlag == 1 {
		rep, detail = b.traced(time.Duration(*seconds * float64(time.Second)))
	} else {
		rep, detail = b.measure(time.Duration(*seconds * float64(time.Second)))
	}
	if *out != "" {
		detail["host"] = host
		detail["workload"], detail["seed"], detail["trace"] = *workload, *seed, *traceFlag
		detail["report"] = rep
		if err := writeDetail(*out, fmt.Sprintf("%s-trace%d-seed%d", *workload, *traceFlag, *seed), detail, b.tracerSpans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func validWorkload(w string) bool {
	for _, x := range workloads {
		if w == x {
			return true
		}
	}
	return false
}

func buildCells(workload string) ([]*cell, error) {
	if workload == "paper" {
		return paperCells()
	}
	return heavyCells(workload)
}

// host records the context a run's numbers belong to.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	BinarySHA  string `json:"binary_sha256"`
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q binary_sha256=%s",
		h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.BinarySHA)
}

func hostContext() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", BinarySHA: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			sum := sha256.New()
			if _, err := io.Copy(sum, f); err == nil {
				h.BinarySHA = hex.EncodeToString(sum.Sum(nil))
			}
			f.Close()
		}
	}
	return h
}

// bench runs one workload's cells and counts operations.
type bench struct {
	workload  string
	cells     []*cell
	seed      int64
	out       io.Writer
	attempted int
	failed    int
	notes     []string // first failure messages, for the log
	digests   map[int]string

	tracerSpans *tracer // first traced pass, written at exit
}

// fail records one failed operation.
func (b *bench) fail(msgs ...string) {
	b.failed++
	for _, m := range msgs {
		if len(b.notes) < 20 {
			b.notes = append(b.notes, m)
		}
	}
}

// runCell runs one production cell after a forced GC (so one cell's garbage
// is not collected on the next one's time), checks its output and returns
// its wall time and the peak heap seen while it ran.
func (b *bench) runCell(i int, hs *heapSampler) (wallS, peakMiB float64, o outcome) {
	c := b.cells[i]
	runtime.GC()
	hs.arm()
	t0 := time.Now()
	o = c.run()
	wallS = time.Since(t0).Seconds()
	peakMiB = hs.disarm()
	b.attempted++
	b.verify(i, o)
	return wallS, peakMiB, o
}

// verify applies the cell's reference check and requires the output to be
// identical to the cell's first run.
func (b *bench) verify(i int, o outcome) {
	c := b.cells[i]
	if o.err != "" {
		b.fail(c.id + ": " + firstLine(o.err))
		return
	}
	msgs := c.check(o)
	if b.digests == nil {
		b.digests = map[int]string{}
	}
	if first, ok := b.digests[i]; !ok {
		b.digests[i] = o.digest
	} else if first != o.digest {
		msgs = append(msgs, c.id+": output differs from its first run")
	}
	if len(msgs) > 0 {
		b.fail(msgs...)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Pass and set-up limits. A run keeps whole passes: it starts another only
// if the median pass so far fits in the time left (at least minPasses).
// Set-up is timed over setupMinPasses..setupMaxPasses passes, stopping
// once setupBudget has been spent.
const (
	minPasses      = 3
	setupMinPasses = 5
	setupMaxPasses = 25
	setupBudget    = 1500 * time.Millisecond
)

// measure is the untraced run: warm-up pass, set-up passes, then timed
// passes until the time is spent.
func (b *bench) measure(seconds time.Duration) (*report, map[string]any) {
	hs := startHeapSampler()
	defer hs.stop()
	n := len(b.cells)

	warm := time.Now()
	for _, i := range passOrder(n, b.seed, -1) {
		b.runCell(i, hs)
	}
	warmS := time.Since(warm).Seconds()

	setupS := b.setupPasses()

	wall := make(cellSeries, n)
	peak := make(cellSeries, n)
	var passS []float64
	start := time.Now()
	for p := 0; ; p++ {
		if p >= minPasses {
			est := time.Duration(median(passS) * float64(time.Second))
			if time.Since(start)+est > seconds {
				break
			}
		}
		t0 := time.Now()
		for _, i := range passOrder(n, b.seed, p) {
			w, pk, _ := b.runCell(i, hs)
			wall[i] = append(wall[i], w)
			peak[i] = append(peak[i], pk)
		}
		passS = append(passS, time.Since(t0).Seconds())
	}

	cellS := wall.sumOfMedians()
	pole, poleCell := wall.maxOfMedians()
	heap, heapCell := peak.maxOfMedians()
	setup := setupS.sumOfMedians()
	q1, q2, q3 := quartiles(wall.passTotals())
	fmt.Fprintf(b.out, "%s: %d cells, warm-up pass %.3f s, %d timed passes in %.1f s\n",
		b.workload, n, warmS, len(passS), time.Since(start).Seconds())
	fmt.Fprintf(b.out, "cell_s        %.4f s  (sum of per-cell medians; pass totals q1 %.4f median %.4f q3 %.4f, n=%d)\n",
		cellS, q1, q2, q3, len(passS))
	fmt.Fprintf(b.out, "long_pole_s   %.4f s  (%s)\n", pole, b.cells[poleCell].id)
	fmt.Fprintf(b.out, "setup_s       %.5f s  (sum of per-cell set-up medians over %d passes)\n", setup, setupPassCount(setupS))
	fmt.Fprintf(b.out, "peak_heap_mib %.2f MiB (%s)\n", heap, b.cells[heapCell].id)
	b.printFailures()

	rows := make([]map[string]any, n)
	wm, pm, sm := wall.medians(), peak.medians(), setupS.medians()
	for i, c := range b.cells {
		wq1, _, wq3 := quartiles(wall[i])
		rows[i] = map[string]any{"cell": c.id, "median_s": wm[i], "q1_s": wq1, "q3_s": wq3,
			"peak_heap_mib": pm[i], "setup_s": nanToZero(sm[i])}
	}
	vals := map[string]float64{"cell_s": cellS, "long_pole_s": pole, "setup_s": setup, "peak_heap_mib": heap}
	rep := &report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, m := range endToEnd {
		rep.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	return rep, map[string]any{"cells": rows, "pass_s": passS, "warmup_s": warmS, "failures": b.notes}
}

// setupPasses times every cell's set-up twin round robin and returns the
// samples (analytic cells, which have no set-up, keep an empty series).
func (b *bench) setupPasses() cellSeries {
	n := len(b.cells)
	out := make(cellSeries, n)
	start := time.Now()
	for p := 0; p < setupMaxPasses; p++ {
		if p >= setupMinPasses && time.Since(start) > setupBudget {
			break
		}
		for _, i := range passOrder(n, b.seed, 1000+p) {
			c := b.cells[i]
			if c.setup == nil {
				continue
			}
			runtime.GC()
			t0 := time.Now()
			err := c.setup()
			out[i] = append(out[i], time.Since(t0).Seconds())
			b.attempted++
			if err != nil {
				b.fail(c.id + ": " + firstLine(err.Error()))
			}
		}
	}
	return out
}

func setupPassCount(cs cellSeries) int {
	n := 0
	for _, xs := range cs {
		n = max(n, len(xs))
	}
	return n
}

// nanToZero reports a cell without set-up samples as 0 in the detail file.
func nanToZero(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

func (b *bench) printFailures() {
	if b.failed == 0 {
		fmt.Fprintf(b.out, "operations: %d attempted, 0 failed\n", b.attempted)
		return
	}
	fmt.Fprintf(b.out, "operations: %d attempted, %d FAILED:\n", b.attempted, b.failed)
	for _, m := range b.notes {
		fmt.Fprintf(b.out, "  %s\n", m)
	}
}

// heapSampler polls the Go heap (bytes in live and not-yet-swept objects)
// while a cell runs and keeps the largest value seen. runtime/metrics
// reads without stopping the world.
type heapSampler struct {
	armed atomic.Bool
	peak  atomic.Uint64
	quit  chan struct{}
	wg    sync.WaitGroup
}

const heapSampleEvery = time.Millisecond

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	hs := &heapSampler{quit: make(chan struct{})}
	hs.wg.Add(1)
	go func() {
		defer hs.wg.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-hs.quit:
				return
			case <-tick.C:
			}
			if hs.armed.Load() {
				hs.raise(readHeap(s))
			}
		}
	}()
	return hs
}

func (hs *heapSampler) raise(v uint64) {
	for {
		old := hs.peak.Load()
		if v <= old || hs.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

func (hs *heapSampler) arm() {
	hs.peak.Store(readHeap([]metrics.Sample{{Name: heapMetric}}))
	hs.armed.Store(true)
}

// disarm stops sampling and returns the peak in MiB, including one final
// reading taken before the cell's result is dropped.
func (hs *heapSampler) disarm() float64 {
	hs.raise(readHeap([]metrics.Sample{{Name: heapMetric}}))
	hs.armed.Store(false)
	return float64(hs.peak.Load()) / (1 << 20)
}

func (hs *heapSampler) stop() {
	close(hs.quit)
	hs.wg.Wait()
}

// writeDetail writes the run's detail record (and, for traced runs, the
// kept spans) into dir.
func writeDetail(dir, stem string, detail map[string]any, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(detail, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if tr != nil {
		return tr.writeSpans(filepath.Join(dir, stem+"-spans.csv"))
	}
	return nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
