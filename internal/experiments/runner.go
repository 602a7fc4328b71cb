// Package experiments contains one driver per table/figure of the paper's
// evaluation (Section 6), plus the generic scenario runner they share.
// Each driver builds the paper's topology, runs it on the discrete-event
// simulator and emits the same rows/series the paper reports.
package experiments

import (
	"errors"
	"math/rand"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/campaign"
	"pi2/internal/core"
	"pi2/internal/faults"
	"pi2/internal/ff"
	"pi2/internal/fq"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
	"pi2/internal/tcp"
	"pi2/internal/traffic"
)

// AQMFactory builds a fresh AQM instance for one run.
type AQMFactory func(rng *rand.Rand) aqm.AQM

// BottleneckFactory builds a scenario's bottleneck on the simulator that
// owns it. cfg carries the scenario's rate, buffer and sojourn collector
// (its AQM is nil); deliver receives every packet that leaves the queue.
type BottleneckFactory func(s *sim.Simulator, cfg link.Config, deliver func(*packet.Packet)) link.Bottleneck

// ErrBottleneckAndAQM is Run's panic value for a Scenario that sets both
// NewBottleneck and NewAQM: a factory-built bottleneck brings its own queue
// management, so the AQM would be silently ignored.
var ErrBottleneckAndAQM = errors.New("experiments: Scenario sets both NewBottleneck and NewAQM")

// linkBottleneck is the default factory: a link.Link managed by newAQM.
func linkBottleneck(newAQM AQMFactory) BottleneckFactory {
	return func(s *sim.Simulator, lc link.Config, deliver func(*packet.Packet)) link.Bottleneck {
		lc.AQM = newAQM(s.RNG())
		return link.New(s, lc, deliver)
	}
}

// DualPI2Bottleneck builds the DualPI2 coupled dual queue. Both per-queue
// sojourn collectors point at the runner's, so Result.Sojourn is the
// combined queue-delay distribution. onBuild, if set, receives the link
// before the run starts (dualq keeps it to read the L/C delay split).
func DualPI2Bottleneck(cfg core.DualConfig, onBuild func(*core.DualLink)) BottleneckFactory {
	return func(s *sim.Simulator, lc link.Config, deliver func(*packet.Packet)) link.Bottleneck {
		c := cfg // per run: a Scenario may be run concurrently
		c.BufferPackets = lc.BufferPackets
		d := core.NewDualLink(s, lc.RateBps, c, deliver)
		d.LSojourn, d.CSojourn = lc.Sojourn, lc.Sojourn
		if onBuild != nil {
			onBuild(d)
		}
		return d
	}
}

// FQCoDelBottleneck builds the FQ-CoDel flow-queuing bottleneck.
func FQCoDelBottleneck(cfg fq.Config) BottleneckFactory {
	return func(s *sim.Simulator, lc link.Config, deliver func(*packet.Packet)) link.Bottleneck {
		c := cfg
		c.RateBps, c.BufferPackets, c.Sojourn = lc.RateBps, lc.BufferPackets, lc.Sojourn
		return fq.New(s, c, deliver)
	}
}

// StagedSpec describes the varying-intensity flow schedule (Figures 6, 13).
type StagedSpec struct {
	// CC is the congestion control for every staged flow.
	CC string
	// RTT is the base round-trip time.
	RTT time.Duration
	// Counts is the number of active flows per stage.
	Counts []int
	// StageLen is each stage's duration.
	StageLen time.Duration
}

// RateChange switches the link capacity at a point in time (Figure 12).
type RateChange struct {
	At      time.Duration
	RateBps float64
}

// Scenario is a complete single-bottleneck experiment description.
type Scenario struct {
	// Seed drives all randomness; runs are reproducible bit-for-bit.
	Seed int64
	// LinkRateBps is the initial bottleneck capacity.
	LinkRateBps float64
	// BufferPackets bounds the queue (default 40000, Table 1).
	BufferPackets int
	// NewAQM builds the queue manager of the default link.Link bottleneck.
	NewAQM AQMFactory
	// NewBottleneck, if set, builds the bottleneck instead of link.New, and
	// NewAQM must be nil (Run panics with ErrBottleneckAndAQM otherwise).
	// DualPI2Bottleneck and FQCoDelBottleneck are the non-FIFO queues.
	NewBottleneck BottleneckFactory
	// Bulk, Staged, UDP and Web describe the offered load.
	Bulk   []traffic.BulkFlowSpec
	Staged *StagedSpec
	UDP    []traffic.UDPSpec
	Web    []traffic.WebSpec
	// RateChanges vary the capacity during the run.
	RateChanges []RateChange
	// Duration is the simulated run length.
	Duration time.Duration
	// WarmUp excludes start-up transients from steady-state statistics
	// (time series still cover the whole run).
	WarmUp time.Duration
	// SampleEvery sets the coarse time-series interval (default 1 s,
	// matching the paper's plots).
	SampleEvery time.Duration
	// SACK enables selective acknowledgments on every bulk flow.
	SACK bool
	// AckEvery sets the delayed/stretch-ACK factor on every bulk flow
	// (0/1 = acknowledge each segment).
	AckEvery int
	// Impair, if non-nil, applies the fault layer to the run: per-packet
	// channel impairments (loss, reordering, duplication) wrap the
	// bottleneck's delivery callback, and a rate schedule drives the
	// link's capacity. Nil leaves the delivery path — and every RNG
	// stream, and therefore every golden fingerprint — exactly as before.
	Impair *faults.Config
	// Watch, if set, receives the run's simulator right after it is
	// built. Drivers set it to the campaign TaskCtx's Watch so the
	// watchdog can cancel the run and observe its virtual clock.
	Watch func(campaign.Canceler)
	// FastForward enables the hybrid fluid/packet engine: quiescent
	// congestion-avoidance epochs are advanced analytically from one AQM
	// update to the next instead of packet by packet (see internal/ff and
	// DESIGN.md). Only scenarios with a steady bulk population and a
	// link.Link whose AQM is a FastForwarder actually engage it — everything
	// else (staged, UDP, web, rate changes, impairments, SACK, DualPI2 and
	// FQ-CoDel bottlenecks) silently runs the classic per-packet loop. Off (the default) keeps the run byte-identical to
	// builds without the engine.
	FastForward bool
	// Shards, when ≥ 2, runs the scenario on the conservative-PDES
	// coordinator: bulk flows are partitioned across Shards-1 endpoint
	// domains and the bottleneck owns domain 0, all
	// advancing in lock-step lookahead windows (see internal/sim/shard.go).
	// One-way propagation moves onto the cross-domain wires, so sharded
	// results are deterministic for a fixed shard count but not
	// byte-identical to the single-domain schedule. 0 or 1 — and any
	// scenario without partitionable bulk flows — uses the classic
	// single-simulator path, byte-identical to before sharding existed.
	Shards int
	// CompactMetrics switches every distribution collector in the Result
	// (queue sojourn, probability and utilization samples, web FCT) from
	// the exact per-observation stats.Sample to the constant-memory
	// stats.LogHistogram. The exact collector stores one float64 per
	// forwarded packet, so memory grows with sim-time × flow-count; the
	// histogram is fixed-size (~2% percentile error) and makes multi-minute
	// runs with thousands of flows feasible. Existing experiments leave it
	// off so golden fingerprints stay byte-identical.
	CompactMetrics bool
}

// GroupResult summarizes one bulk-flow group after the run.
type GroupResult struct {
	// Label is the group's tag (defaults to the CC name).
	Label string
	// CC is the congestion-control name.
	CC string
	// FlowRates holds each flow's goodput in bits/s over the
	// measurement window (after WarmUp).
	FlowRates []float64
	// Marks is the total CE marks seen by the group's receivers.
	Marks int
	// CongestionEvents is the total multiplicative decreases.
	CongestionEvents int
	// Retransmissions is the total retransmitted segments.
	Retransmissions int
}

// Total returns the group's aggregate goodput in bits/s.
func (g GroupResult) Total() float64 {
	var sum float64
	for _, r := range g.FlowRates {
		sum += r
	}
	return sum
}

// MeanPerFlow returns the mean per-flow goodput in bits/s.
func (g GroupResult) MeanPerFlow() float64 {
	if len(g.FlowRates) == 0 {
		return 0
	}
	return g.Total() / float64(len(g.FlowRates))
}

// UDPResult reports one unresponsive source's fate over the measurement
// window — the loss numbers Figure 12-style overload experiments need.
type UDPResult struct {
	// RateBps is the configured send rate in bits/s.
	RateBps float64
	// SentBytes and DeliveredBytes count the window's traffic; LostBytes
	// is their difference (packets still queued at the end count as lost,
	// which over a multi-second window is negligible).
	SentBytes, DeliveredBytes, LostBytes int64
	// DeliveredBps is the delivered goodput in bits/s over the window.
	DeliveredBps float64
	// LossRatio is LostBytes/SentBytes (0 when nothing was sent).
	LossRatio float64
}

// Result is everything an experiment driver needs to print its figure.
type Result struct {
	// DelaySeries is the queue delay (seconds) sampled at SampleEvery.
	DelaySeries stats.TimeSeries
	// DelayFine is the queue delay sampled every 100 ms (Figure 12 peaks).
	DelayFine stats.TimeSeries
	// GoodputSeries is total TCP goodput (bits/s) at SampleEvery.
	GoodputSeries stats.TimeSeries
	// Sojourn is the per-packet queuing delay (seconds) over the
	// measurement window — the paper's Figure 14/16 metric. This and the
	// other Quantiler fields hold exact stats.Sample collectors by
	// default, or constant-memory histograms under CompactMetrics.
	Sojourn stats.Quantiler
	// ClassicProb and ScalableProb sample the AQM's probabilities every
	// 100 ms over the measurement window (Figure 17).
	ClassicProb, ScalableProb stats.Quantiler
	// UtilSeries samples link utilization per SampleEvery interval over
	// the measurement window (Figure 18's P1/mean/P99).
	UtilSeries stats.Quantiler
	// Utilization is the mean over the measurement window.
	Utilization float64
	// Groups reports per-group flow rates in Scenario order (staged and
	// web groups excluded).
	Groups []GroupResult
	// DropsAQM, DropsOverflow, Marks count the whole-run totals.
	DropsAQM, DropsOverflow, Marks int
	// WebFCT aggregates web-workload flow completion times (seconds).
	WebFCT stats.Quantiler
	// UDP reports per-source delivered/lost bytes in Scenario order.
	UDP []UDPResult
	// FaultDrops, FaultDups and FaultReorders count the impairment
	// layer's interventions (all zero without Scenario.Impair).
	FaultDrops, FaultDups, FaultReorders int
	// Events is the number of simulator events processed (bench metric).
	// Virtual fast-forward traffic is deliberately excluded: this counts
	// real packet-mode work only.
	Events uint64
	// FFEpochs, FFZeroEpochs, FFVirtualPkts and FFTime are the fast-forward
	// engine's telemetry: committed epochs, detected-but-empty epochs (test
	// hook), virtual packets decided, and total virtual time skipped. All
	// zero when Scenario.FastForward is off or never engaged.
	FFEpochs, FFZeroEpochs int
	FFVirtualPkts          uint64
	FFTime                 time.Duration
}

// EventCount reports the processed-event total; it satisfies
// campaign.EventCounter so the engine can attribute events/sec to each run.
func (r *Result) EventCount() uint64 { return r.Events }

// newQuantiler picks the collector family for one Result distribution.
func newQuantiler(compact bool) stats.Quantiler {
	if compact {
		return stats.NewDelayHistogram()
	}
	return &stats.Sample{}
}

// emptyResult returns a Result whose collectors are empty exact samples, so
// consumers of a failed (panicked) cell print zeros instead of hitting nil
// Quantiler interfaces.
func emptyResult() *Result {
	return &Result{
		Sojourn:      &stats.Sample{},
		ClassicProb:  &stats.Sample{},
		ScalableProb: &stats.Sample{},
		UtilSeries:   &stats.Sample{},
		WebFCT:       &stats.Sample{},
	}
}

// simRunner is what Run drives: a *sim.Simulator, or the *sim.Coordinator
// of a sharded placement.
type simRunner interface {
	campaign.Canceler
	ff.Clock
	RunUntil(time.Duration)
	Processed() uint64
}

// Run executes a scenario to completion. It is the one scenario assembler:
// what varies is the bottleneck (NewBottleneck) and the placement — one
// simulator, or, for a shardable scenario, bulk flows spread round-robin
// over PDES endpoint domains while domain 0 owns the bottleneck and every
// co-located workload (see sharded.go).
func Run(sc Scenario) *Result {
	if sc.SampleEvery == 0 {
		sc.SampleEvery = time.Second
	}
	if sc.NewBottleneck != nil && sc.NewAQM != nil {
		panic(ErrBottleneckAndAQM)
	}
	var (
		run   simRunner
		sims  []*sim.Simulator // one per domain; sims[0] owns the bottleneck
		shard *shardPlan
	)
	if shardable(sc) {
		co := sim.NewCoordinator(sc.Seed, shardDomains(sc), shardLookahead(sc))
		shard = newShardPlan(co)
		run, sims = co, shard.sims
	} else {
		s := sim.New(sc.Seed)
		run, sims = s, []*sim.Simulator{s}
	}
	if sc.Watch != nil {
		sc.Watch(run)
	}
	ls := sims[0]
	d := link.NewDispatcher()
	deliver := d.Deliver
	if shard != nil {
		deliver = shard.route(d)
	}
	// The impairment layer wraps the delivery callback *after* the
	// bottleneck (and before any cross-domain wire), so the auditor's
	// conservation identities hold unchanged with faults active. It is
	// only constructed when impairments are configured: an unimpaired run
	// draws no extra RNG stream.
	var inj *faults.Injector
	if sc.Impair != nil && sc.Impair.Active() {
		inj = faults.NewInjector(ls, *sc.Impair, deliver)
		deliver = inj.Deliver
	}
	newB := sc.NewBottleneck
	if newB == nil {
		newB = linkBottleneck(sc.NewAQM)
	}
	b := newB(ls, link.Config{
		RateBps:       sc.LinkRateBps,
		BufferPackets: sc.BufferPackets,
		Sojourn:       newQuantiler(sc.CompactMetrics),
	}, deliver)
	if sc.Impair != nil && sc.Impair.Rate != nil {
		sc.Impair.Rate.Apply(ls, b)
	}

	res := &Result{
		DelaySeries:  stats.TimeSeries{Interval: sc.SampleEvery},
		DelayFine:    stats.TimeSeries{Interval: 100 * time.Millisecond},
		ClassicProb:  newQuantiler(sc.CompactMetrics),
		ScalableProb: newQuantiler(sc.CompactMetrics),
		UtilSeries:   newQuantiler(sc.CompactMetrics),
		WebFCT:       newQuantiler(sc.CompactMetrics),
	}

	// doms[i] holds the long-lived flows domain i owns, in creation order;
	// its samplers and warm-up reset touch only those.
	doms := make([][]*tcp.Endpoint, len(sims))
	nextID := 1
	var groups []*traffic.BulkGroup
	var bulk []*tcp.Endpoint
	for _, spec := range sc.Bulk {
		if sc.SACK {
			spec.SACK = true
		}
		if spec.AckEvery == 0 {
			spec.AckEvery = sc.AckEvery
		}
		var g *traffic.BulkGroup
		if shard != nil {
			g, nextID = shard.startBulk(b, nextID, spec, doms)
		} else {
			g, nextID = traffic.StartBulk(ls, b, d, nextID, spec)
			doms[0] = append(doms[0], g.Flows...)
		}
		groups = append(groups, g)
		bulk = append(bulk, g.Flows...)
	}
	if sc.Staged != nil {
		var staged []*tcp.Endpoint
		staged, nextID = traffic.StagedCounts(ls, b, d, nextID,
			sc.Staged.CC, sc.Staged.RTT, sc.Staged.Counts, sc.Staged.StageLen)
		doms[0] = append(doms[0], staged...)
	}
	var udps []*traffic.UDPSource
	for _, spec := range sc.UDP {
		udps = append(udps, traffic.StartUDP(ls, b, d, nextID, spec))
		nextID++
	}
	var webs []*traffic.WebWorkload
	for _, spec := range sc.Web {
		w := traffic.StartWeb(ls, b, d, &nextID, spec)
		if sc.CompactMetrics {
			// Short flows complete directly into the shared histogram;
			// no per-flow sample storage, no merge at collection time.
			w.FCT = res.WebFCT
		}
		webs = append(webs, w)
	}
	for _, rc := range sc.RateChanges {
		rate := rc.RateBps
		ls.At(rc.At, func() { b.SetRateBps(rate) })
	}

	// Warm-up boundary: restart every steady-state statistic. Each domain
	// resets the flows it owns, on its own simulator; domain 0 also resets
	// the bottleneck and the UDP meters. In fast-forward mode the hybrid
	// loop invokes the reset at the exact boundary instead of scheduling
	// it: ShiftPending translates every pending event when an epoch
	// commits — right for frozen packet processes, wrong for an
	// absolute-calendar event like this one.
	reset := func(i int, now time.Duration) {
		for _, f := range doms[i] {
			f.Goodput.Reset(now)
		}
		if i == 0 {
			b.ResetStats()
			for _, u := range udps {
				u.ResetStats(now)
			}
		}
	}
	eng := newFFEngine(sc, run, b, bulk)
	if eng == nil {
		for i, s := range sims {
			s.At(sc.WarmUp, func() { reset(i, s.Now()) })
		}
	}

	// Coarse sampler, per domain: each reads only its own flows' goodput
	// (the per-domain series are summed after the run); domain 0 also
	// samples queue delay and per-interval utilization.
	goodput := make([]stats.TimeSeries, len(sims))
	var lastDelivered int64
	for i, s := range sims {
		goodput[i].Interval = sc.SampleEvery
		var lastGoodput int64
		s.Every(sc.SampleEvery, func() {
			now := s.Now()
			var total int64
			for _, f := range doms[i] {
				total += f.Goodput.Bytes()
			}
			goodput[i].Record(now, float64(total-lastGoodput)*8/sc.SampleEvery.Seconds())
			lastGoodput = total
			if i > 0 {
				return
			}
			res.DelaySeries.Record(now, b.QueueDelayNow().Seconds())
			delivered := b.DeliveredBytes()
			// The meter is reset at the warm-up boundary; skip the sample
			// whose interval straddles the reset.
			if now > sc.WarmUp && delivered >= lastDelivered {
				util := float64(delivered-lastDelivered) * 8 /
					(sc.SampleEvery.Seconds() * b.RateBps())
				if util > 1 {
					util = 1
				}
				res.UtilSeries.Add(util)
			}
			lastDelivered = delivered
		})
	}

	// Fine sampler: 100 ms queue delay + probability samples.
	var probe any = b
	if l, ok := b.(*link.Link); ok {
		probe = l.AQM()
	}
	pr, _ := probe.(aqm.ProbabilityReporter)
	sr, _ := probe.(aqm.ScalableReporter)
	ls.Every(100*time.Millisecond, func() {
		now := ls.Now()
		res.DelayFine.Record(now, b.QueueDelayNow().Seconds())
		if now <= sc.WarmUp {
			return
		}
		if pr != nil {
			res.ClassicProb.Add(pr.DropProbability())
		}
		if sr != nil {
			res.ScalableProb.Add(sr.ScalableProbability())
		}
	})

	// In a sharded placement the engine runs on the coordinator thread
	// between barrier windows, when every domain is parked at the window
	// edge, and Coordinator.ShiftPending translates all domain clocks and
	// in-flight wire traffic together.
	if eng != nil {
		runFastForward(eng, run.Now, run.RunUntil, sc, func() {
			now := ls.Now()
			for i := range sims {
				reset(i, now)
			}
		})
		ffCollect(res, eng)
	} else {
		run.RunUntil(sc.Duration)
	}

	// Collect. Every domain clock sits at sc.Duration after RunUntil.
	now := ls.Now()
	res.Sojourn = b.SojournStats()
	res.Utilization = b.Utilization()
	res.DropsAQM, res.DropsOverflow, res.Marks = b.Counts()
	res.Events = run.Processed()
	res.GoodputSeries = sumSeries(goodput)
	for _, g := range groups {
		label := g.Spec.Label
		if label == "" {
			label = g.Spec.CC
		}
		gr := GroupResult{Label: label, CC: g.Spec.CC,
			FlowRates: make([]float64, 0, len(g.Flows))}
		for _, f := range g.Flows {
			gr.FlowRates = append(gr.FlowRates, f.Goodput.RateBps(now))
			gr.Marks += f.MarksSeen()
			gr.CongestionEvents += f.CongestionEvents()
			gr.Retransmissions += f.Retransmissions()
		}
		res.Groups = append(res.Groups, gr)
	}
	if !sc.CompactMetrics {
		// Exact path: workloads collected separately; merge in Scenario
		// order so the Add sequence — and golden fingerprints — are stable.
		for _, w := range webs {
			res.WebFCT.(*stats.Sample).Merge(w.FCT.(*stats.Sample))
		}
	}
	for _, u := range udps {
		ur := UDPResult{
			RateBps:        u.Spec.RateBps,
			SentBytes:      u.Sent.Bytes(),
			DeliveredBytes: u.Received.Bytes(),
			DeliveredBps:   u.Received.RateBps(now),
		}
		ur.LostBytes = ur.SentBytes - ur.DeliveredBytes
		if ur.LostBytes < 0 {
			ur.LostBytes = 0
		}
		if ur.SentBytes > 0 {
			ur.LossRatio = float64(ur.LostBytes) / float64(ur.SentBytes)
		}
		res.UDP = append(res.UDP, ur)
	}
	if inj != nil {
		res.FaultDrops = inj.Dropped
		res.FaultDups = inj.Duplicated
		res.FaultReorders = inj.Reordered
	}
	// A violated invariant means the run's numbers cannot be trusted; panic
	// so the campaign engine fails this cell with the full report (which
	// invariant, where) instead of recording bogus metrics.
	if msg := b.Audit().Err("bottleneck link"); msg != "" {
		panic(msg)
	}
	if shard != nil {
		if msg := shard.wires.Err("cross-domain wires"); msg != "" {
			panic(msg)
		}
	}
	return res
}

// sumSeries adds per-domain series index-wise; every domain ticks at the
// same instants, so the series align (defensively truncated to the
// shortest). A single series is returned as is.
func sumSeries(per []stats.TimeSeries) stats.TimeSeries {
	if len(per) == 1 {
		return per[0]
	}
	n := len(per[0].Times)
	for _, ts := range per[1:] {
		n = min(n, len(ts.Times))
	}
	out := stats.TimeSeries{Interval: per[0].Interval}
	for k := 0; k < n; k++ {
		var sum float64
		for _, ts := range per {
			sum += ts.Values[k]
		}
		out.Record(per[0].Times[k], sum)
	}
	return out
}
