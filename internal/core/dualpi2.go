package core

import (
	"math"
	"math/rand"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
)

// DualConfig parametrizes the DualPI2 dual-queue coupled AQM — the paper's
// stated deployment goal (Section 7, refs [12][13]; later RFC 9332). It is
// an extension beyond the paper's own single-queue evaluation.
type DualConfig struct {
	// Config provides the coupled PI²/PI parameters (gains act on p′,
	// Classic probability is p′², Scalable coupled probability is k·p′).
	Config
	// LThreshMin/LThreshMax bound the L-queue native ramp: the marking
	// probability rises linearly from 0 at LThreshMin sojourn to 1 at
	// LThreshMax (defaults 1 ms and 2 ms). The applied L probability is
	// the maximum of the ramp and the coupled probability k·p′.
	LThreshMin, LThreshMax time.Duration
	// TShift is the time-shifted-FIFO scheduler bias: the L queue is
	// served unless the Classic head has waited TShift longer than the
	// L head (default 40 ms). This gives L near-priority without
	// starving C.
	TShift time.Duration
	// BufferPackets bounds the combined queue (default 40000).
	BufferPackets int
}

func (c *DualConfig) setDefaults() {
	c.Config.setDefaults()
	if c.LThreshMin == 0 {
		c.LThreshMin = time.Millisecond
	}
	if c.LThreshMax == 0 {
		c.LThreshMax = 2 * time.Millisecond
	}
	if c.TShift == 0 {
		c.TShift = 40 * time.Millisecond
	}
	if c.BufferPackets == 0 {
		c.BufferPackets = 40000
	}
}

// subqueue is one of the two FIFOs inside the DualLink.
type subqueue struct {
	pkts  []*packet.Packet
	head  int
	bytes int
}

func (q *subqueue) len() int { return len(q.pkts) - q.head }

func (q *subqueue) push(p *packet.Packet) {
	q.pkts = append(q.pkts, p)
	q.bytes += p.WireLen
}

func (q *subqueue) pop() *packet.Packet {
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	if q.head > 1024 && q.head*2 >= len(q.pkts) {
		n := copy(q.pkts, q.pkts[q.head:])
		clear(q.pkts[n:])
		q.pkts = q.pkts[:n]
		q.head = 0
	}
	q.bytes -= p.WireLen
	return p
}

func (q *subqueue) headSojourn(now time.Duration) time.Duration {
	if q.len() == 0 {
		return 0
	}
	return now - q.pkts[q.head].EnqueuedAt
}

// DualLink is a bottleneck with the DualPI2 structure: a low-latency (L)
// queue for Scalable traffic and a Classic (C) queue, drained by one
// transmitter under a time-shifted priority scheduler, with one PI
// controller coupling the congestion signals of both queues.
type DualLink struct {
	sim     *sim.Simulator
	cfg     DualConfig
	rng     *rand.Rand
	rate    float64
	deliver func(*packet.Packet)

	lq, cq subqueue
	busy   bool

	core aqm.PICore

	// txPkt is the packet currently serializing and txDoneFn the pre-bound
	// completion callback — one slot instead of a per-packet closure, the
	// same zero-allocation transmit path as link.Link.
	txPkt    *packet.Packet
	txDoneFn sim.Event

	// pool recycles dropped packets (delivered ones are released by their
	// terminal consumer downstream).
	pool *packet.Pool

	// OnDrop, if set, observes every dropped packet (and takes ownership of
	// it), mirroring link.Link.OnDrop.
	OnDrop func(*packet.Packet, link.DropReason)

	// Statistics, split per queue. Exact samples by default; the heavy
	// many-flow tier swaps in constant-memory histograms (assign before
	// the first enqueue). Pointing both at one collector yields the
	// combined queue-delay distribution.
	LSojourn, CSojourn stats.Quantiler // seconds
	delivered          int64           // bytes since ResetStats
	drops              [2]int          // by link.DropAQM / link.DropOverflow
	lMarks, cMarks     int
	tx                 link.BusyMeter

	// aud is the always-on invariant auditor shared with link.Link: the
	// same conservation identities hold over the combined L+C backlog.
	aud link.Auditor
}

// NewDualLink creates a DualPI2 bottleneck of the given rate (bits/s).
func NewDualLink(s *sim.Simulator, rateBps float64, cfg DualConfig, deliver func(*packet.Packet)) *DualLink {
	cfg.setDefaults()
	d := &DualLink{
		sim:      s,
		cfg:      cfg,
		rng:      s.RNG(),
		rate:     rateBps,
		deliver:  deliver,
		pool:     s.PacketPool(),
		LSojourn: &stats.Sample{},
		CSojourn: &stats.Sample{},
	}
	d.txDoneFn = d.txDone
	d.core = aqm.PICore{
		Alpha:  cfg.Alpha,
		Beta:   cfg.Beta,
		Target: cfg.Target,
		PMax:   pMaxFor(cfg.MaxClassicProb),
	}
	s.Every(cfg.Tupdate, d.update)
	return d
}

func pMaxFor(maxClassic float64) float64 {
	// p′ is capped so p′² never exceeds the Classic cap.
	if maxClassic >= 1 {
		return 1
	}
	return math.Sqrt(maxClassic)
}

// PPrime returns the coupled controller's internal variable p′.
func (d *DualLink) PPrime() float64 { return d.core.P() }

// Drops returns the total dropped-packet count.
func (d *DualLink) Drops() int { return d.drops[link.DropAQM] + d.drops[link.DropOverflow] }

// Marks returns the CE marks applied to the L and C queues respectively.
func (d *DualLink) Marks() (l, c int) { return d.lMarks, d.cMarks }

// update runs the PI law on the deeper of the two queue delays, so the
// controller keeps working when only one kind of traffic is present.
func (d *DualLink) update() {
	now := d.sim.Now()
	qdelay := d.cq.headSojourn(now)
	if l := d.lq.headSojourn(now); l > qdelay {
		qdelay = l
	}
	d.core.Update(qdelay)
}

// Enqueue classifies and admits a packet. Classic packets face the squared
// probability at enqueue; L-queue packets are marked at dequeue (so the
// mark reflects the delay actually experienced).
func (d *DualLink) Enqueue(p *packet.Packet) {
	if p.Released() {
		panic("duallink: enqueued a packet that was already released to the pool")
	}
	now := d.sim.Now()
	d.aud.Offered(p, now)
	if d.lq.len()+d.cq.len() >= d.cfg.BufferPackets {
		d.drop(p, link.DropOverflow)
		return
	}
	p.EnqueuedAt = now
	if p.ECN.Scalable() {
		d.lq.push(p)
	} else {
		pp := d.core.P()
		if d.rng.Float64() < pp && d.rng.Float64() < pp {
			if p.ECN == packet.ECT0 {
				d.aud.Marked(p, now)
				p.ECN = packet.CE
				d.cMarks++
			} else {
				d.drop(p, link.DropAQM)
				return
			}
		}
		d.cq.push(p)
	}
	d.aud.Accepted(p, now)
	d.aud.Conserve(now, d.lq.len()+d.cq.len(), d.lq.bytes+d.cq.bytes)
	if !d.busy {
		d.startTx()
	}
}

// drop records an enqueue-time drop (overflow or Classic squared drop) and
// recycles the packet unless an OnDrop observer takes ownership.
func (d *DualLink) drop(p *packet.Packet, r link.DropReason) {
	now := d.sim.Now()
	d.aud.DroppedPkt(p, now, false)
	d.drops[r]++
	if d.OnDrop != nil {
		d.OnDrop(p, r)
	} else {
		d.pool.Release(p)
	}
	d.aud.Conserve(now, d.lq.len()+d.cq.len(), d.lq.bytes+d.cq.bytes)
}

// rampProb is the L queue's native AQM: linear ramp on sojourn time.
func (d *DualLink) rampProb(sojourn time.Duration) float64 {
	if sojourn <= d.cfg.LThreshMin {
		return 0
	}
	if sojourn >= d.cfg.LThreshMax {
		return 1
	}
	return float64(sojourn-d.cfg.LThreshMin) / float64(d.cfg.LThreshMax-d.cfg.LThreshMin)
}

func (d *DualLink) startTx() {
	now := d.sim.Now()
	var p *packet.Packet
	// Time-shifted priority: serve L unless the C head is TShift older.
	serveL := d.lq.len() > 0 &&
		(d.cq.len() == 0 || d.lq.headSojourn(now)+d.cfg.TShift >= d.cq.headSojourn(now))
	if serveL {
		p = d.lq.pop()
		d.LSojourn.Add((now - p.EnqueuedAt).Seconds())
		// Coupled + native marking, whichever is stronger.
		pL := d.cfg.K * d.core.P()
		if r := d.rampProb(now - p.EnqueuedAt); r > pL {
			pL = r
		}
		if pL > 1 {
			pL = 1
		}
		if d.rng.Float64() < pL {
			d.aud.Marked(p, now)
			p.ECN = packet.CE
			d.lMarks++
		}
	} else {
		p = d.cq.pop()
		d.CSojourn.Add((now - p.EnqueuedAt).Seconds())
	}
	d.aud.Dequeued(p, now)
	d.aud.Conserve(now, d.lq.len()+d.cq.len(), d.lq.bytes+d.cq.bytes)

	d.busy = true
	d.tx.Start(now)
	d.txPkt = p
	txTime := time.Duration(float64(p.WireLen*8) / d.rate * float64(time.Second))
	d.sim.After(txTime, d.txDoneFn)
}

// txDone completes the in-flight packet's serialization and hands it to the
// delivery callback; pre-bound once so transmission schedules a method
// value, not a fresh closure per packet.
func (d *DualLink) txDone() {
	p := d.txPkt
	d.txPkt = nil
	d.tx.Stop(d.sim.Now())
	d.delivered += int64(p.WireLen)
	d.aud.Delivered(p, d.sim.Now())
	d.deliver(p)
	d.busy = false
	if d.lq.len()+d.cq.len() > 0 {
		d.startTx()
	}
}

// SetRateBps changes the link capacity (rate-flap impairment schedules call
// this); a packet already serializing completes at the old rate.
func (d *DualLink) SetRateBps(r float64) { d.rate = r }

// RateBps returns the current capacity in bits/s.
func (d *DualLink) RateBps() float64 { return d.rate }

// Audit returns the always-on invariant auditor (same identities as
// link.Link's, over the combined L+C backlog).
func (d *DualLink) Audit() *link.Auditor { return &d.aud }

// BacklogPackets returns the packets queued in L and C together.
func (d *DualLink) BacklogPackets() int { return d.lq.len() + d.cq.len() }

// BacklogBytes returns the bytes queued in L and C together.
func (d *DualLink) BacklogBytes() int { return d.lq.bytes + d.cq.bytes }

// QueueDelayNow implements link.Bottleneck: the combined backlog divided
// by the current capacity.
func (d *DualLink) QueueDelayNow() time.Duration {
	if d.rate <= 0 {
		return 0
	}
	return time.Duration(float64(d.BacklogBytes()*8) / d.rate * float64(time.Second))
}

// SojournStats implements link.Bottleneck: the L queue's collector, which
// holds every packet's delay when LSojourn and CSojourn share one.
func (d *DualLink) SojournStats() stats.Quantiler { return d.LSojourn }

// DeliveredBytes implements link.Bottleneck.
func (d *DualLink) DeliveredBytes() int64 { return d.delivered }

// Counts implements link.Bottleneck; marks sum both queues.
func (d *DualLink) Counts() (aqmDrops, overflowDrops, marks int) {
	return d.drops[link.DropAQM], d.drops[link.DropOverflow], d.lMarks + d.cMarks
}

// ResetStats starts a fresh measurement window at the current time, with
// link.Link.ResetStats's semantics. The auditor is never reset.
func (d *DualLink) ResetStats() {
	d.LSojourn.Reset()
	d.CSojourn.Reset()
	d.delivered = 0
	d.drops = [2]int{}
	d.lMarks, d.cMarks = 0, 0
	d.tx.Reset(d.sim.Now(), d.busy)
}

// Utilization returns the busy fraction since the last ResetStats (or
// since start).
func (d *DualLink) Utilization() float64 { return d.tx.Utilization(d.sim.Now(), d.busy) }
