package experiments

import (
	"math/rand"
	"testing"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/core"
	"pi2/internal/fq"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
	"pi2/internal/tcp"
	"pi2/internal/traffic"
)

// TestRandomScenarioInvariants is the failure-injection sweep: it generates
// random small scenarios (random AQM, congestion-control mix, rates, RTTs,
// buffer sizes, UDP load) and asserts the structural invariants that must
// hold for any of them:
//
//  1. packet conservation at the bottleneck: enqueues = dequeues + drops + backlog
//  2. goodput never exceeds capacity
//  3. per-packet sojourn times are non-negative and bounded by
//     buffer/capacity
//  4. utilization ∈ [0, 1]
//  5. no flow ends below its minimum window
//  6. determinism: the same seed reproduces the same drop count
func TestRandomScenarioInvariants(t *testing.T) {
	aqmNames := []string{"pi2", "pie", "bare-pie", "pi", "red", "codel", "taildrop"}
	ccNames := []string{"reno", "cubic", "ecn-cubic", "dctcp", "scalable"}
	meta := rand.New(rand.NewSource(2024))

	for trial := 0; trial < 25; trial++ {
		seed := meta.Int63()
		aqmName := aqmNames[meta.Intn(len(aqmNames))]
		linkMbps := []float64{2, 8, 25, 60}[meta.Intn(4)]
		rtt := []time.Duration{2, 10, 40, 120}[meta.Intn(4)] * time.Millisecond
		buffer := []int{20, 200, 2000}[meta.Intn(3)]
		nFlows := 1 + meta.Intn(6)
		cc := ccNames[meta.Intn(len(ccNames))]
		udp := meta.Float64() < 0.3
		sackOn := make([]bool, nFlows)
		for i := range sackOn {
			sackOn[i] = meta.Intn(2) == 0
		}

		t.Run("", func(t *testing.T) {
			runOne := func() (*link.Link, []*tcp.Endpoint, time.Duration) {
				s := sim.New(seed)
				d := link.NewDispatcher()
				factory, _ := FactoryByName(aqmName, 20*time.Millisecond)
				l := link.New(s, link.Config{
					RateBps:       linkMbps * 1e6,
					BufferPackets: buffer,
					AQM:           factory(s.RNG()),
				}, d.Deliver)
				var eps []*tcp.Endpoint
				for id := 1; id <= nFlows; id++ {
					ccImpl, mode, err := tcp.NewCC(cc)
					if err != nil {
						t.Fatal(err)
					}
					ep := tcp.New(s, l, tcp.Config{
						ID: id, CC: ccImpl, ECN: mode, BaseRTT: rtt,
						SACK: sackOn[id-1],
					})
					d.Register(id, ep.DeliverData)
					ep.Start()
					eps = append(eps, ep)
				}
				if udp {
					traffic.StartUDP(s, l, d, 1000, traffic.UDPSpec{RateBps: linkMbps * 1e6 / 3})
				}
				dur := 5 * time.Second
				s.RunUntil(dur)
				return l, eps, dur
			}
			l, eps, dur := runOne()

			// 1. Conservation.
			total := l.Dequeues() + l.TotalDrops() + l.BacklogPackets()
			if l.Enqueues() != total {
				t.Errorf("[%s %gMbps %v buf=%d %s] conservation: enq=%d deq+drop+backlog=%d",
					aqmName, linkMbps, rtt, buffer, cc, l.Enqueues(), total)
			}
			// 2. Goodput bound (5%% slack for the measurement window edge).
			var goodput float64
			for _, ep := range eps {
				goodput += float64(ep.Goodput.Bytes()) * 8 / dur.Seconds()
			}
			if goodput > linkMbps*1e6*1.05 {
				t.Errorf("goodput %.0f exceeds capacity %.0f", goodput, linkMbps*1e6)
			}
			// 3. Sojourn bounds.
			if l.Sojourn.N() > 0 {
				if l.Sojourn.Min() < 0 {
					t.Error("negative sojourn")
				}
				maxSojourn := float64(buffer) * float64(packet.FullLen) * 8 / (linkMbps * 1e6)
				if l.Sojourn.Max() > maxSojourn*1.05 {
					t.Errorf("sojourn %.3fs exceeds buffer bound %.3fs", l.Sojourn.Max(), maxSojourn)
				}
			}
			// 4. Utilization range.
			if u := l.Utilization(); u < 0 || u > 1.0001 {
				t.Errorf("utilization %v out of range", u)
			}
			// 5. Window floor.
			for _, ep := range eps {
				if ep.State().Cwnd < 1 {
					t.Errorf("cwnd %v below 1", ep.State().Cwnd)
				}
			}
			// 6. Determinism.
			l2, _, _ := runOne()
			if l2.TotalDrops() != l.TotalDrops() || l2.Dequeues() != l.Dequeues() {
				t.Errorf("same seed diverged: drops %d vs %d", l.TotalDrops(), l2.TotalDrops())
			}
		})
	}
}

// TestOverloadCap verifies the paper's Section 5 overload strategy: with
// unresponsive traffic exceeding capacity, PI2 caps the Classic probability
// at 25 % and lets the queue grow to the tail-drop limit instead of
// starving drop-based traffic.
func TestOverloadCap(t *testing.T) {
	s := sim.New(3)
	d := link.NewDispatcher()
	q2 := core.New(core.Config{}, s.RNG())
	l := link.New(s, link.Config{
		RateBps:       10e6,
		BufferPackets: 300,
		AQM:           q2,
	}, d.Deliver)
	d.Register(1000, func(*packet.Packet) {})
	traffic.StartUDP(s, l, d, 1000, traffic.UDPSpec{RateBps: 20e6}) // 2x overload
	s.RunUntil(30 * time.Second)

	if p := q2.DropProbability(); p > 0.25+1e-9 {
		t.Errorf("classic prob %v exceeded the 25%% cap under overload", p)
	}
	if pp := q2.PPrime(); pp < 0.499 {
		t.Errorf("p' = %v, want saturated at 0.5 under 2x overload", pp)
	}
	// The AQM alone cannot shed 50% with a 25% cap: tail drop must be
	// engaged and the queue pinned at the buffer limit.
	if l.Drops(link.DropOverflow) == 0 {
		t.Error("no tail drops despite the capped AQM being insufficient")
	}
	if l.BacklogPackets() < 250 {
		t.Errorf("backlog %d, want pinned near the 300-packet buffer", l.BacklogPackets())
	}
	// The link itself must remain fully used (work conservation).
	if u := l.Utilization(); u < 0.99 {
		t.Errorf("utilization %v under overload", u)
	}
}

// TestRTTHeterogeneousCoexistence extends Figure 15 beyond the paper's
// equal-RTT setup: a Cubic flow at 40 ms against a DCTCP flow at 10 ms.
// Classic RTT unfairness is expected (the shorter-RTT flow wins), but the
// coupled AQM must still prevent outright starvation in either direction.
func TestRTTHeterogeneousCoexistence(t *testing.T) {
	res := Run(Scenario{
		Seed:        5,
		LinkRateBps: 40e6,
		NewAQM:      PI2Factory(20 * time.Millisecond),
		Bulk: []traffic.BulkFlowSpec{
			{CC: "cubic", Count: 1, RTT: 40 * time.Millisecond, Label: "cubic-40ms"},
			{CC: "dctcp", Count: 1, RTT: 10 * time.Millisecond, Label: "dctcp-10ms"},
		},
		Duration: 60 * time.Second,
		WarmUp:   20 * time.Second,
	})
	cubic := res.Groups[0].MeanPerFlow()
	dctcp := res.Groups[1].MeanPerFlow()
	t.Logf("cubic(40ms)=%.2f Mb/s dctcp(10ms)=%.2f Mb/s", cubic/1e6, dctcp/1e6)
	if cubic < 0.05*40e6/2 {
		t.Errorf("cubic starved at %.2f Mb/s despite the coupling", cubic/1e6)
	}
	if dctcp < 0.05*40e6/2 {
		t.Errorf("dctcp starved at %.2f Mb/s", dctcp/1e6)
	}
}

// TestCurvyREDCoexistence runs the draft's example AQM on the headline
// cell: it couples too, but with a standing-delay push-back instead of a
// held target, so it should balance rates at a higher delay than PI2.
func TestCurvyREDCoexistence(t *testing.T) {
	res := Run(Scenario{
		Seed:        6,
		LinkRateBps: 40e6,
		NewAQM: func(rng *rand.Rand) aqm.AQM {
			return aqm.NewCurvyRED(aqm.CurvyREDConfig{}, rng)
		},
		Bulk: []traffic.BulkFlowSpec{
			{CC: "cubic", Count: 1, RTT: 10 * time.Millisecond},
			{CC: "dctcp", Count: 1, RTT: 10 * time.Millisecond},
		},
		Duration: 60 * time.Second,
		WarmUp:   20 * time.Second,
	})
	cubic := res.Groups[0].MeanPerFlow()
	dctcp := res.Groups[1].MeanPerFlow()
	ratio := cubic / dctcp
	t.Logf("curvy-red: ratio=%.3f meanQ=%.1fms", ratio, res.Sojourn.Mean()*1e3)
	if ratio < 0.15 || ratio > 6 {
		t.Errorf("curvy-red ratio %.3f: coupling broken", ratio)
	}
	if res.Utilization < 0.9 {
		t.Errorf("utilization %.3f", res.Utilization)
	}
}

// TestStepMarkingVsProbabilistic reproduces the Appendix A contrast behind
// equations (11) and (12): DCTCP under a step threshold receives marks in
// on-off RTT-length trains, so for the same average marking fraction it
// runs a *larger* window than under evenly distributed probabilistic
// marking — the reason the paper drives Scalable traffic from the PI
// controller's random marks.
func TestStepMarkingVsProbabilistic(t *testing.T) {
	// Step threshold: measure W and mark fraction together.
	s := sim.New(8)
	d := link.NewDispatcher()
	step := aqm.NewStepMark(aqm.StepMarkConfig{Threshold: 2 * time.Millisecond})
	l := link.New(s, link.Config{RateBps: 40e6, AQM: step}, d.Deliver)
	cc := &tcp.DCTCP{}
	ep := tcp.New(s, l, tcp.Config{ID: 1, CC: cc, ECN: tcp.ECNScalable, BaseRTT: 10 * time.Millisecond})
	d.Register(1, ep.DeliverData)
	ep.Start()

	var wSum float64
	var wN int
	s.Every(10*time.Millisecond, func() {
		if s.Now() > 10*time.Second {
			wSum += ep.State().Cwnd
			wN++
		}
	})
	s.RunUntil(40 * time.Second)

	wStep := wSum / float64(wN)
	pStep := float64(ep.MarksSeen()) / float64(l.Dequeues())
	// Equation (11) would predict W = 2/p for evenly spread marks; the
	// on-off trains of a step threshold deliver the same total marks in
	// clumps, and each clump costs at most one window reduction, so the
	// realized window exceeds the probabilistic prediction.
	predicted := 2 / pStep
	t.Logf("step marking: W=%.1f p=%.4f 2/p=%.1f", wStep, pStep, predicted)
	if wStep <= predicted {
		t.Errorf("W=%.1f under step marking not above the probabilistic 2/p=%.1f (eq 11 vs 12)",
			wStep, predicted)
	}
	// Sanity: DCTCP must still hold the queue near the step threshold.
	if q := l.Sojourn.Mean(); q > 0.012 {
		t.Errorf("mean queue %.1f ms, want near the 2 ms step", q*1e3)
	}
}

// TestAuditedByteAndECNConservation drives traffic mixes through the link's
// always-on invariant auditor and asserts the byte-level ledger and ECN
// accounting that the packet-count checks above cannot see:
//
//   - offered bytes = dequeued + dropped + backlog bytes (exact, no slack)
//   - delivered never exceeds dequeued
//   - CE marks only ever land on ECT traffic, and marks + drops never
//     exceed arrivals
//   - a mix with no ECT traffic sees zero marks
//
// The auditor itself re-checks conservation after every event inside the
// run; Err() == "" certifies the whole trajectory, not just the end state.
func TestAuditedByteAndECNConservation(t *testing.T) {
	cases := []struct {
		name       string
		aqmName    string
		bottleneck BottleneckFactory // overrides aqmName's link.Link
		ccs        []string
		udp        bool
		buffer     int
	}{
		// Coupled AQM, Classic + Scalable + unresponsive NotECT load.
		{name: "pi2-mixed", aqmName: "pi2", ccs: []string{"cubic", "dctcp"}, udp: true, buffer: 200},
		// Head-dropping AQM (CoDel dequeues then drops) with ECN flows.
		{name: "codel-ecn", aqmName: "codel", ccs: []string{"ecn-cubic", "ecn-cubic"}, buffer: 200},
		// Pure loss-based: tiny buffer forces overflow; no ECT at all.
		{name: "taildrop-reno", aqmName: "taildrop", ccs: []string{"reno", "reno", "reno"}, buffer: 25},
		// RED marking with Scalable traffic.
		{name: "red-dctcp", aqmName: "red", ccs: []string{"dctcp"}, udp: true, buffer: 200},
		// Dual queue: Classic squared drops, L-queue marks, shared overflow.
		{name: "dualpi2", bottleneck: DualPI2Bottleneck(core.DualConfig{}, nil),
			ccs: []string{"cubic", "dctcp"}, udp: true, buffer: 200},
		// Per-flow CoDel head drops and marks behind DRR scheduling.
		{name: "fq-codel", bottleneck: FQCoDelBottleneck(fq.Config{}),
			ccs: []string{"cubic", "dctcp", "ecn-cubic"}, udp: true, buffer: 200},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(11)
			d := link.NewDispatcher()
			newB := tc.bottleneck
			if newB == nil {
				factory, ok := FactoryByName(tc.aqmName, 20*time.Millisecond)
				if !ok {
					t.Fatalf("unknown AQM %q", tc.aqmName)
				}
				newB = linkBottleneck(factory)
			}
			b := newB(s, link.Config{
				RateBps:       20e6,
				BufferPackets: tc.buffer,
				Sojourn:       &stats.Sample{},
			}, d.Deliver)
			ect := false
			for i, cc := range tc.ccs {
				ccImpl, mode, err := tcp.NewCC(cc)
				if err != nil {
					t.Fatal(err)
				}
				if mode != tcp.ECNOff {
					ect = true
				}
				ep := tcp.NewWithEnqueuer(s, traffic.Ingress(b), tcp.Config{
					ID: i + 1, CC: ccImpl, ECN: mode, BaseRTT: 10 * time.Millisecond,
				})
				d.Register(i+1, ep.DeliverData)
				ep.Start()
			}
			if tc.udp {
				traffic.StartUDP(s, b, d, 1000, traffic.UDPSpec{RateBps: 8e6})
			}
			s.RunUntil(12 * time.Second)

			aud := b.Audit()
			if msg := aud.Err(tc.name); msg != "" {
				t.Fatalf("auditor violations:\n%s", msg)
			}
			// Byte ledger. offered = accepted + preDrops and
			// accepted = dequeued + postDrops + backlog combine into one
			// exported identity: offered = dequeued + drops + backlog.
			q := b.(interface {
				BacklogBytes() int
				BacklogPackets() int
			})
			wantBytes := aud.DequeuedBytes + aud.DroppedBytes + int64(q.BacklogBytes())
			if aud.OfferedBytes != wantBytes {
				t.Errorf("byte conservation: offered %d != dequeued+dropped+backlog %d",
					aud.OfferedBytes, wantBytes)
			}
			wantPkts := aud.DequeuedPackets + aud.DroppedPackets + q.BacklogPackets()
			if aud.OfferedPackets != wantPkts {
				t.Errorf("packet conservation: offered %d != dequeued+dropped+backlog %d",
					aud.OfferedPackets, wantPkts)
			}
			if aud.DeliveredPackets > aud.DequeuedPackets {
				t.Errorf("delivered %d > dequeued %d", aud.DeliveredPackets, aud.DequeuedPackets)
			}
			// ECN accounting.
			if aud.MarkedPackets > aud.ECTOffered {
				t.Errorf("%d CE marks on only %d ECT arrivals", aud.MarkedPackets, aud.ECTOffered)
			}
			if aud.MarkedPackets+aud.DroppedPackets > aud.OfferedPackets {
				t.Errorf("marks %d + drops %d exceed arrivals %d",
					aud.MarkedPackets, aud.DroppedPackets, aud.OfferedPackets)
			}
			aqmDrops, overflow, marks := b.Counts()
			if aud.MarkedPackets != marks {
				t.Errorf("auditor marks %d != bottleneck marks %d", aud.MarkedPackets, marks)
			}
			if aud.DroppedPackets != aqmDrops+overflow {
				t.Errorf("auditor drops %d != bottleneck drops %d+%d", aud.DroppedPackets, aqmDrops, overflow)
			}
			if !ect && aud.MarkedPackets != 0 {
				t.Errorf("%d CE marks in an all-NotECT mix", aud.MarkedPackets)
			}
			if !ect && aud.ECTOffered != 0 {
				t.Errorf("%d ECT arrivals in an all-NotECT mix", aud.ECTOffered)
			}
		})
	}
}
