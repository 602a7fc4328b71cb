// Package link models the bottleneck: a FIFO buffer managed by an AQM,
// drained by a serializing transmitter at a configurable bit rate.
//
// The topology in this repository mirrors the paper's dumbbell: senders
// enqueue into one bottleneck; dequeued packets are handed to a delivery
// callback (the transport endpoint adds the flow's base RTT). The reverse
// (ACK) path is uncongested, as in the testbed.
package link

import (
	"time"

	"pi2/internal/aqm"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
)

// DropReason distinguishes AQM drops from buffer overflow in statistics.
type DropReason int

const (
	// DropAQM is a drop decided by the AQM control law.
	DropAQM DropReason = iota
	// DropOverflow is a tail-drop because the buffer was full.
	DropOverflow
	// DropFault is a loss injected by the impairment layer (internal/faults)
	// after the packet left the bottleneck — channel loss, not queue policy.
	// The link itself never drops with this reason; it exists so OnDrop
	// observers and loss statistics can tell injected faults apart.
	DropFault
)

// Config describes a bottleneck link.
type Config struct {
	// RateBps is the serialization rate in bits/s.
	RateBps float64
	// BufferPackets bounds the queue length (tail-drop beyond it).
	// The paper's Table 1 uses 40000 packets.
	BufferPackets int
	// AQM manages the queue; nil means pure tail-drop.
	AQM aqm.AQM
	// Sojourn, if set, collects the per-packet queuing delay; nil uses the
	// exact stats.Sample. The heavy many-flow tier passes a constant-memory
	// stats.LogHistogram so metrics memory stays bounded at any run length.
	Sojourn stats.Quantiler
}

// Link is the bottleneck queue + transmitter.
type Link struct {
	sim  *sim.Simulator
	cfg  Config
	aqm  aqm.AQM
	rate float64 // current bits/s

	queue []*packet.Packet
	head  int // index of the queue head; avoids O(n) dequeue copies
	bytes int
	busy  bool

	deliver func(*packet.Packet)

	// txPkt is the packet currently being serialized and txDoneFn the
	// pre-bound completion callback; the transmitter serializes one packet
	// at a time, so a single slot (instead of a per-packet closure) keeps
	// the serialize→deliver path allocation-free.
	txPkt    *packet.Packet
	txDoneFn sim.Event

	// pool recycles dropped packets (delivered ones are released by their
	// terminal consumer).
	pool *packet.Pool

	// Statistics.
	Sojourn   stats.Quantiler // per-packet queuing delay, seconds
	Delivered stats.RateMeter
	drops     map[DropReason]int
	marks     int
	enqueues  int
	dequeues  int
	tx        BusyMeter

	// OnDrop, if set, is invoked for every dropped packet (AQM or
	// overflow) so transports can count losses without owning the queue.
	OnDrop func(*packet.Packet, DropReason)

	// aud is the always-on invariant auditor (see audit.go). Unlike the
	// statistics above it is never reset: its conservation identities
	// cover the link's whole lifetime.
	aud Auditor
}

// New creates a link attached to the simulator and wires the AQM's periodic
// timer. deliver receives every packet that completes serialization.
func New(s *sim.Simulator, cfg Config, deliver func(*packet.Packet)) *Link {
	if cfg.BufferPackets <= 0 {
		cfg.BufferPackets = 40000 // Table 1 default
	}
	a := cfg.AQM
	if a == nil {
		a = aqm.TailDrop{}
	}
	soj := cfg.Sojourn
	if soj == nil {
		soj = &stats.Sample{}
	}
	l := &Link{
		sim:     s,
		cfg:     cfg,
		aqm:     a,
		rate:    cfg.RateBps,
		deliver: deliver,
		drops:   make(map[DropReason]int),
		pool:    s.PacketPool(),
		Sojourn: soj,
	}
	l.txDoneFn = l.txDone
	if iv := a.UpdateInterval(); iv > 0 {
		s.Every(iv, func() { a.Update(l, s.Now()) })
	}
	return l
}

// --- aqm.QueueInfo ---

// BacklogBytes implements aqm.QueueInfo.
func (l *Link) BacklogBytes() int { return l.bytes }

// BacklogPackets implements aqm.QueueInfo.
func (l *Link) BacklogPackets() int { return len(l.queue) - l.head }

// HeadSojourn implements aqm.QueueInfo.
func (l *Link) HeadSojourn(now time.Duration) time.Duration {
	if l.head == len(l.queue) {
		return 0
	}
	return now - l.queue[l.head].EnqueuedAt
}

// CapacityBps implements aqm.QueueInfo.
func (l *Link) CapacityBps() float64 { return l.rate }

// --- data path ---

// Enqueue submits a packet to the bottleneck. The AQM and buffer limit are
// applied here; accepted packets are serialized in FIFO order.
func (l *Link) Enqueue(p *packet.Packet) {
	if p.Released() {
		panic("link: enqueued a packet that was already released to the pool")
	}
	now := l.sim.Now()
	l.enqueues++
	l.aud.Offered(p, now)
	if len(l.queue)-l.head >= l.cfg.BufferPackets {
		l.drop(p, DropOverflow, false)
		return
	}
	switch l.aqm.Enqueue(p, l, now) {
	case aqm.Drop:
		l.drop(p, DropAQM, false)
		return
	case aqm.Mark:
		l.aud.Marked(p, now)
		p.ECN = packet.CE
		l.marks++
	}
	p.EnqueuedAt = now
	l.queue = append(l.queue, p)
	l.bytes += p.WireLen
	l.aud.Accepted(p, now)
	l.aud.Conserve(now, len(l.queue)-l.head, l.bytes)
	if !l.busy {
		l.startTx()
	}
}

// drop records a dropped packet; fromQueue marks a head drop of an
// already-accepted packet (the auditor's conservation split needs it).
func (l *Link) drop(p *packet.Packet, r DropReason, fromQueue bool) {
	now := l.sim.Now()
	l.aud.DroppedPkt(p, now, fromQueue)
	l.drops[r]++
	if l.OnDrop != nil {
		l.OnDrop(p, r)
	} else {
		// The link is the dropped packet's terminal owner; with no OnDrop
		// observer the packet can be recycled immediately. (Observers keep
		// ownership because tests retain dropped packets for inspection.)
		l.pool.Release(p)
	}
	l.aud.Conserve(now, len(l.queue)-l.head, l.bytes)
}

// startTx pops the head of the queue and begins serializing it. Dequeue-time
// AQMs (CoDel) may head-drop; in that case the next packet is tried. The
// caller guarantees l.busy is false and at least one packet is queued.
func (l *Link) startTx() {
	now := l.sim.Now()
	var p *packet.Packet
	for {
		p = l.queue[l.head]
		l.queue[l.head] = nil
		l.head++
		if l.head > 1024 && l.head*2 >= len(l.queue) {
			n := copy(l.queue, l.queue[l.head:])
			clear(l.queue[n:])
			l.queue = l.queue[:n]
			l.head = 0
		}
		l.bytes -= p.WireLen
		if dd, ok := l.aqm.(aqm.DequeueDropper); ok {
			v := dd.DequeueVerdict(p, l, now)
			if v == aqm.Drop {
				// Head drop: the packet neither departs nor counts
				// as a dequeue, so enqueues = dequeues + drops +
				// backlog stays exact.
				l.drop(p, DropAQM, true)
				if len(l.queue)-l.head == 0 {
					return // dropped the whole backlog; link stays idle
				}
				continue
			}
			if v == aqm.Mark {
				l.aud.Marked(p, now)
				p.ECN = packet.CE
				l.marks++
			}
		}
		l.dequeues++
		l.aud.Dequeued(p, now)
		l.aud.Conserve(now, len(l.queue)-l.head, l.bytes)
		l.aqm.Dequeue(p, l, now)
		break
	}
	l.Sojourn.Add((now - p.EnqueuedAt).Seconds())

	l.busy = true
	l.tx.Start(now)
	l.txPkt = p
	txTime := time.Duration(float64(p.WireLen*8) / l.rate * float64(time.Second))
	l.sim.After(txTime, l.txDoneFn)
}

// txDone completes the in-flight packet's serialization and hands it to the
// delivery callback. It is pre-bound once in New so serializing a packet
// schedules a plain method value, not a fresh closure.
func (l *Link) txDone() {
	p := l.txPkt
	l.txPkt = nil
	l.tx.Stop(l.sim.Now())
	l.Delivered.Add(p.WireLen)
	l.aud.Delivered(p, l.sim.Now())
	l.deliver(p)
	l.busy = false
	if len(l.queue)-l.head > 0 {
		l.startTx()
	}
}

// SetRateBps changes the link capacity (Figure 12's varying-capacity test).
// A packet already being serialized completes at the old rate.
func (l *Link) SetRateBps(r float64) { l.rate = r }

// RateBps returns the current capacity in bits/s.
func (l *Link) RateBps() float64 { return l.rate }

// QueueDelayNow estimates the instantaneous queuing delay as backlog
// divided by capacity; the harness samples this for the delay time series.
func (l *Link) QueueDelayNow() time.Duration {
	if l.rate <= 0 {
		return 0
	}
	return time.Duration(float64(l.bytes*8) / l.rate * float64(time.Second))
}

// --- statistics ---

// Drops returns the packet count dropped for the given reason.
func (l *Link) Drops(r DropReason) int { return l.drops[r] }

// TotalDrops returns all drops regardless of reason.
func (l *Link) TotalDrops() int { return l.drops[DropAQM] + l.drops[DropOverflow] }

// Marks returns how many packets were CE-marked.
func (l *Link) Marks() int { return l.marks }

// Counts implements Bottleneck.
func (l *Link) Counts() (aqmDrops, overflowDrops, marks int) {
	return l.drops[DropAQM], l.drops[DropOverflow], l.marks
}

// SojournStats implements Bottleneck: the Sojourn collector.
func (l *Link) SojournStats() stats.Quantiler { return l.Sojourn }

// DeliveredBytes implements Bottleneck: the Delivered meter's count.
func (l *Link) DeliveredBytes() int64 { return l.Delivered.Bytes() }

// Enqueues returns how many packets were offered to the queue.
func (l *Link) Enqueues() int { return l.enqueues }

// Dequeues returns how many packets left the queue.
func (l *Link) Dequeues() int { return l.dequeues }

// Utilization returns the fraction of time the transmitter was busy since
// the last ResetStats (or since start).
func (l *Link) Utilization() float64 { return l.tx.Utilization(l.sim.Now(), l.busy) }

// BusyMeter accumulates a transmitter's busy time over a measurement
// window. Every Bottleneck implementation keeps one, so Utilization and
// its ResetStats window mean the same thing for every queue.
type BusyMeter struct {
	since, total, window time.Duration
}

// Start marks the transmitter busy from now.
func (m *BusyMeter) Start(now time.Duration) { m.since = now }

// Stop ends the busy period that Start began.
func (m *BusyMeter) Stop(now time.Duration) { m.total += now - m.since }

// Utilization returns the busy fraction of the window up to now; busy
// reports whether a busy period is still open.
func (m *BusyMeter) Utilization(now time.Duration, busy bool) float64 {
	t := m.total
	if busy {
		t += now - m.since
	}
	if now <= m.window {
		return 0
	}
	return float64(t) / float64(now-m.window)
}

// Reset starts a fresh window at now.
func (m *BusyMeter) Reset(now time.Duration, busy bool) {
	m.total, m.window = 0, now
	if busy {
		m.since = now
	}
}

// ResetStats starts a fresh measurement window at the current time.
// Experiments call it after warm-up so start-up transients are excluded
// from steady-state statistics (they still appear in time series).
func (l *Link) ResetStats() {
	now := l.sim.Now()
	l.Sojourn.Reset()
	l.Delivered.Reset(now)
	l.drops = make(map[DropReason]int)
	l.marks = 0
	l.enqueues = 0
	l.dequeues = 0
	l.tx.Reset(now, l.busy)
}

// AQM returns the attached queue manager.
func (l *Link) AQM() aqm.AQM { return l.aqm }
