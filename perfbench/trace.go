package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"time"
	"unsafe"

	"pi2/internal/aqm"
	"pi2/internal/core"
	"pi2/internal/experiments"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
	"pi2/internal/tcp"
	"pi2/internal/traffic"
)

// Layers a traced cell records spans for. The scheduler has no span of its
// own: its share is the RunUntil time no top-level span covers.
const (
	lEnqueue      = iota // bottleneck ingress: link.Link / core.DualLink Enqueue
	lAQMDecide           // AQM Enqueue/Dequeue (and FFDecide under fast-forward)
	lAQMUpdate           // AQM periodic Update (and FFUpdate)
	lStatsAdd            // Sojourn/probability collector Add
	lStatsCollect        // collector queries after the run (mean, percentiles)
	lRecv                // delivery: Dispatcher.Deliver into the receiving endpoint
	lCC                  // CongestionControl OnAck/OnCongestionEvent/OnRTO
	nLayers
)

var layerNames = [nLayers]string{"enqueue", "aqm.decide", "aqm.update", "stats.add", "stats.collect", "tcp.recv", "tcp.cc"}

// maxSpans bounds the raw spans kept in memory for the trace file; the
// per-layer sums cover every span regardless.
const maxSpans = 200_000

// span is one recorded interval, in nanoseconds since the tracer started.
type span struct {
	layer, depth uint8
	start, dur   int64
}

// openSpan is a span in progress; child accumulates the time its nested
// spans took, so its self time is its duration minus child.
type openSpan struct {
	layer        int
	start, child int64
}

// tracer records nested spans at layer boundaries. The simulation is
// single-threaded, so a plain stack suffices.
type tracer struct {
	t0    time.Time
	stack []openSpan
	self  [nLayers]int64
	calls [nLayers]int64
	top   int64 // total duration of spans with no parent (called by the scheduler)
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1024)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(layer int) {
	t.stack = append(t.stack, openSpan{layer: layer, start: t.now()})
}

func (t *tracer) end() {
	end := t.now()
	n := len(t.stack) - 1
	o := t.stack[n]
	t.stack = t.stack[:n]
	d := end - o.start
	t.self[o.layer] += d - o.child
	t.calls[o.layer]++
	if n > 0 {
		t.stack[n-1].child += d
	} else {
		t.top += d
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{layer: uint8(o.layer), depth: uint8(n), start: o.start, dur: d})
	}
}

// writeSpans writes the kept raw spans as CSV.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer,depth,start_ns,dur_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d\n", layerNames[s.layer], s.depth, s.start, s.dur)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedAQM wraps an AQM's decision and update calls in spans.
type tracedAQM struct {
	aqm.AQM
	t *tracer
}

func (w *tracedAQM) Enqueue(p *packet.Packet, q aqm.QueueInfo, now time.Duration) aqm.Verdict {
	w.t.begin(lAQMDecide)
	v := w.AQM.Enqueue(p, q, now)
	w.t.end()
	return v
}

func (w *tracedAQM) Dequeue(p *packet.Packet, q aqm.QueueInfo, now time.Duration) {
	w.t.begin(lAQMDecide)
	w.AQM.Dequeue(p, q, now)
	w.t.end()
}

func (w *tracedAQM) Update(q aqm.QueueInfo, now time.Duration) {
	w.t.begin(lAQMUpdate)
	w.AQM.Update(q, now)
	w.t.end()
}

// ffTracedAQM additionally forwards the fast-forward surface, so wrapping
// does not change whether fast-forward engages.
type ffTracedAQM struct {
	tracedAQM
	ff aqm.FastForwarder
}

func (w *ffTracedAQM) FFDecide(ecn packet.ECN, wireLen, backlog int) aqm.Verdict {
	w.t.begin(lAQMDecide)
	v := w.ff.FFDecide(ecn, wireLen, backlog)
	w.t.end()
	return v
}

func (w *ffTracedAQM) FFUpdate(qdelay time.Duration) {
	w.t.begin(lAQMUpdate)
	w.ff.FFUpdate(qdelay)
	w.t.end()
}

func (w *ffTracedAQM) FFShift(delta time.Duration) { w.ff.FFShift(delta) }
func (w *ffTracedAQM) FFTarget() time.Duration     { return w.ff.FFTarget() }

// wrapAQM wraps a single-queue AQM. Dequeue-time droppers (CoDel) are not
// supported: the traced shapes use PIE and PI2 only.
func wrapAQM(a aqm.AQM, t *tracer) (aqm.AQM, error) {
	if _, ok := a.(aqm.DequeueDropper); ok {
		return nil, fmt.Errorf("trace: dequeue-dropping AQM %s not supported", a.Name())
	}
	if ff, ok := a.(aqm.FastForwarder); ok {
		return &ffTracedAQM{tracedAQM{a, t}, ff}, nil
	}
	return &tracedAQM{a, t}, nil
}

// tracedCC wraps a congestion control's per-ACK and congestion calls.
type tracedCC struct {
	tcp.CongestionControl
	t *tracer
}

func (w *tracedCC) OnAck(s *tcp.State, acked int, ce bool, now time.Duration) {
	w.t.begin(lCC)
	w.CongestionControl.OnAck(s, acked, ce, now)
	w.t.end()
}

func (w *tracedCC) OnCongestionEvent(s *tcp.State, now time.Duration) {
	w.t.begin(lCC)
	w.CongestionControl.OnCongestionEvent(s, now)
	w.t.end()
}

func (w *tracedCC) OnRTO(s *tcp.State, now time.Duration) {
	w.t.begin(lCC)
	w.CongestionControl.OnRTO(s, now)
	w.t.end()
}

// UseHyStart forwards Cubic's optional HyStart switch, which the endpoint
// probes for by interface; controls without it default to off either way.
func (w *tracedCC) UseHyStart() bool {
	if h, ok := w.CongestionControl.(interface{ UseHyStart() bool }); ok {
		return h.UseHyStart()
	}
	return false
}

// newTracedEndpoint builds an endpoint whose control is wrapped. The
// wrapper hides the unexported sequence binding DCTCP and Prague use for
// their observation window, so the inner control is re-bound to the
// endpoint's own counters with tcp.BindSeq; reflection locates them.
func newTracedEndpoint(s *sim.Simulator, enq tcp.Enqueuer, cfg tcp.Config, t *tracer) (*tcp.Endpoint, error) {
	inner := cfg.CC
	cfg.CC = &tracedCC{CongestionControl: inner, t: t}
	ep := tcp.NewWithEnqueuer(s, enq, cfg)
	una, nxt, err := seqCounters(ep)
	if err != nil {
		return nil, err
	}
	tcp.BindSeq(inner, una, nxt)
	return ep, nil
}

// seqCounters returns pointers to an endpoint's cumulative-ACK and
// next-send sequence numbers.
func seqCounters(ep *tcp.Endpoint) (una, nxt *int64, err error) {
	v := reflect.ValueOf(ep).Elem()
	field := func(name string) (*int64, error) {
		f := v.FieldByName(name)
		if !f.IsValid() || f.Kind() != reflect.Int64 {
			return nil, fmt.Errorf("trace: tcp.Endpoint has no int64 field %s", name)
		}
		return (*int64)(unsafe.Pointer(f.UnsafeAddr())), nil
	}
	if una, err = field("sndUna"); err != nil {
		return nil, nil, err
	}
	nxt, err = field("sndNxt")
	return una, nxt, err
}

// tracedQ wraps a distribution collector: Add is a stats.add span, every
// query a stats.collect span.
type tracedQ struct {
	q stats.Quantiler
	t *tracer
}

func (w *tracedQ) Add(x float64) {
	w.t.begin(lStatsAdd)
	w.q.Add(x)
	w.t.end()
}

func (w *tracedQ) collect() func() {
	w.t.begin(lStatsCollect)
	return w.t.end
}

func (w *tracedQ) N() int          { defer w.collect()(); return w.q.N() }
func (w *tracedQ) Mean() float64   { defer w.collect()(); return w.q.Mean() }
func (w *tracedQ) Stddev() float64 { defer w.collect()(); return w.q.Stddev() }
func (w *tracedQ) Min() float64    { defer w.collect()(); return w.q.Min() }
func (w *tracedQ) Max() float64    { defer w.collect()(); return w.q.Max() }
func (w *tracedQ) Reset()          { w.q.Reset() }
func (w *tracedQ) Percentile(q float64) float64 {
	defer w.collect()()
	return w.q.Percentile(q)
}
func (w *tracedQ) Percentiles(qs ...float64) []float64 {
	defer w.collect()()
	return w.q.Percentiles(qs...)
}

// pendingEvery is the interval of the benchmark's heap-depth sampler.
const pendingEvery = 10 * time.Millisecond

// shape is a representative cell the benchmark assembles itself from the
// layer constructors, so every boundary can be wrapped. twin names the
// production cell it replicates; their event counts must agree.
type shape struct {
	name  string
	twin  string
	seed  int64
	dual  bool    // core.DualLink bottleneck (else link.Link + AQM)
	aqm   string  // single-queue AQM name
	rate  float64 // bits/s
	bulk  []traffic.BulkFlowSpec
	dur   time.Duration
	warm  time.Duration
	exact bool // exact stats.Sample collectors (else log histograms)
}

// sampleEvery is the runner's coarse sampling interval (Scenario's default).
const sampleEvery = time.Second

// shapeResult is one traced shape run.
type shapeResult struct {
	events       uint64 // simulator events, minus the benchmark sampler's own
	pendingMax   int
	assembleS    float64
	wallS        float64 // whole traced cell
	simSelfS     float64 // RunUntil time outside every top-level span
	dataSegs     int64
	retx         int64
	marks, drops int
	err          error
}

// heavyShape replicates a heavy-tier cell (experiments' runHeavyCell and
// runHeavyDual): n flows split into reno/cubic/dctcp thirds at 2 Mb/s fair
// share and 10 ms RTT, with compact collectors.
func heavyShape(aqmName string, n, timeDiv int, seed int64) shape {
	dur := time.Duration(heavyDuration(timeDiv) * float64(time.Second))
	rtt := 10 * time.Millisecond
	reno, cubic := n/3, n/3
	return shape{
		name: fmt.Sprintf("heavy/%s/%d", aqmName, n), twin: "heavy/" + heavyCellID(aqmName, n),
		seed: seed, dual: aqmName == "dualpi2", aqm: aqmName, rate: 2e6 * float64(n),
		bulk: []traffic.BulkFlowSpec{
			{CC: "reno", Count: reno, RTT: rtt, Label: "reno"},
			{CC: "cubic", Count: cubic, RTT: rtt, Label: "cubic"},
			{CC: "dctcp", Count: n - reno - cubic, RTT: rtt, Label: "dctcp"},
		},
		dur: dur, warm: dur * 2 / 5,
	}
}

// sweepShape replicates one coexistence-sweep cell at golden scale: one
// Cubic flow against one ECN-capable flow, exact collectors.
func sweepShape(twin string, seed int64, pair, aqmName string, linkMbps float64, rtt time.Duration) shape {
	dur := 100 * time.Second / 20
	return shape{
		name: fmt.Sprintf("sweep/%s/%s/%gM/%v", pair, aqmName, linkMbps, rtt), twin: twin,
		seed: seed, aqm: aqmName, rate: linkMbps * 1e6,
		bulk: []traffic.BulkFlowSpec{
			{CC: "cubic", Count: 1, RTT: rtt, Label: "A"},
			{CC: pair, Count: 1, RTT: rtt, Label: "B"},
		},
		dur: dur, warm: dur * 2 / 5, exact: true,
	}
}

func (sh shape) newQ(t *tracer) *tracedQ {
	if sh.exact {
		return &tracedQ{&stats.Sample{}, t}
	}
	return &tracedQ{stats.NewDelayHistogram(), t}
}

// runShape assembles and runs one traced shape.
func runShape(sh shape, t *tracer) (r shapeResult) {
	start := time.Now()
	s := sim.New(sh.seed)
	d := link.NewDispatcher()
	deliver := func(p *packet.Packet) {
		t.begin(lRecv)
		d.Deliver(p)
		t.end()
	}
	var (
		bottleneck func(*packet.Packet)
		l          *link.Link
		dual       *core.DualLink
		inner      aqm.AQM
	)
	soj := sh.newQ(t)
	if sh.dual {
		dual = core.NewDualLink(s, sh.rate, core.DualConfig{}, deliver)
		dual.LSojourn, dual.CSojourn = soj, soj
		bottleneck = dual.Enqueue
	} else {
		factory, ok := experiments.FactoryByName(sh.aqm, 20*time.Millisecond)
		if !ok {
			r.err = fmt.Errorf("trace: unknown AQM %q", sh.aqm)
			return r
		}
		inner = factory(s.RNG())
		wrapped, err := wrapAQM(inner, t)
		if err != nil {
			r.err = err
			return r
		}
		l = link.New(s, link.Config{RateBps: sh.rate, AQM: wrapped, Sojourn: soj}, deliver)
		bottleneck = l.Enqueue
	}
	enqueue := func(p *packet.Packet) {
		r.dataSegs++
		if p.Retransmit {
			r.retx++
		}
		t.begin(lEnqueue)
		bottleneck(p)
		t.end()
	}

	var flows []*tcp.Endpoint
	id := 1
	for _, spec := range sh.bulk {
		for i := 0; i < spec.Count; i++ {
			cc, mode, err := tcp.NewCCFeedback(spec.CC, spec.Feedback)
			if err != nil {
				r.err = err
				return r
			}
			ep, err := newTracedEndpoint(s, enqueue, tcp.Config{ID: id, CC: cc, ECN: mode, BaseRTT: spec.RTT}, t)
			if err != nil {
				r.err = err
				return r
			}
			d.Register(id, ep.DeliverData)
			if sh.dual {
				ep.Start() // runHeavyDual starts flows during assembly
			} else {
				s.At(spec.StartAt, ep.Start)
			}
			flows = append(flows, ep)
			id++
		}
	}

	// Warm-up reset and samplers, in the runner's order.
	s.At(sh.warm, func() {
		now := s.Now()
		if l != nil {
			l.ResetStats()
		} else {
			soj.Reset()
		}
		for _, f := range flows {
			f.Goodput.Reset(now)
		}
	})
	var classic, scalable, util *tracedQ
	if l != nil {
		classic, scalable, util = sh.newQ(t), sh.newQ(t), sh.newQ(t)
		var lastDelivered int64
		s.Every(sampleEvery, func() {
			delivered := l.Delivered.Bytes()
			if s.Now() > sh.warm && delivered >= lastDelivered {
				u := float64(delivered-lastDelivered) * 8 / (sampleEvery.Seconds() * l.RateBps())
				util.Add(min(u, 1))
			}
			lastDelivered = delivered
		})
		s.Every(100*time.Millisecond, func() {
			if s.Now() <= sh.warm {
				return
			}
			if pr, ok := inner.(aqm.ProbabilityReporter); ok {
				classic.Add(pr.DropProbability())
			}
			if sr, ok := inner.(aqm.ScalableReporter); ok {
				scalable.Add(sr.ScalableProbability())
			}
		})
	}
	var firings uint64
	s.Every(pendingEvery, func() {
		firings++
		r.pendingMax = max(r.pendingMax, s.Pending())
	})

	run := time.Now()
	r.assembleS = run.Sub(start).Seconds()
	topBefore := t.top
	s.RunUntil(sh.dur)
	r.simSelfS = time.Since(run).Seconds() - float64(t.top-topBefore)/1e9
	r.events = s.Processed() - firings

	// Collection, as the drivers reduce a cell.
	now := s.Now()
	_ = soj.Mean()
	_ = soj.Percentile(99)
	rates := make([]float64, 0, len(flows))
	for _, f := range flows {
		rates = append(rates, f.Goodput.RateBps(now))
	}
	_ = stats.JainIndex(rates)
	if l != nil {
		for _, q := range []*tracedQ{classic, scalable, util} {
			if q.N() > 0 {
				q.Percentiles(1, 25, 99)
				q.Mean()
			}
		}
		r.marks, r.drops = l.Marks(), l.TotalDrops()
		if msg := l.Audit().Err("bottleneck link"); msg != "" {
			r.err = fmt.Errorf("%s: %s", sh.name, msg)
		}
	} else {
		lm, cm := dual.Marks()
		r.marks, r.drops = lm+cm, dual.Drops()
		if msg := dual.Audit().Err("duallink"); msg != "" {
			r.err = fmt.Errorf("%s: %s", sh.name, msg)
		}
	}
	r.wallS = time.Since(start).Seconds()
	return r
}

// ffReplica reruns a heavy pie/pi2 cell under fast-forward through the
// production runner (experiments.Run), with its AQM wrapped so the
// analytic epochs' FFDecide/FFUpdate calls are spans too, and returns the
// runner's fast-forward telemetry.
func ffReplica(aqmName string, n int, seed int64, t *tracer) (*experiments.Result, error) {
	sh := heavyShape(aqmName, n, 0, seed)
	factory, ok := experiments.FactoryByName(aqmName, 20*time.Millisecond)
	if !ok {
		return nil, fmt.Errorf("trace: unknown AQM %q", aqmName)
	}
	var wrapErr error
	res := experiments.Run(experiments.Scenario{
		Seed:        seed,
		FastForward: true,
		LinkRateBps: sh.rate,
		NewAQM: func(rng *rand.Rand) aqm.AQM {
			a, err := wrapAQM(factory(rng), t)
			if err != nil {
				wrapErr = err
				return factory(rng)
			}
			return a
		},
		CompactMetrics: true,
		Bulk:           sh.bulk,
		Duration:       sh.dur,
		WarmUp:         sh.warm,
	})
	return res, wrapErr
}
