// Package fq implements a flow-queuing bottleneck in the style of FQ-CoDel
// (RFC 8290): packets hash to per-flow queues served by deficit round robin
// with new-flow priority, and each queue runs its own CoDel instance.
//
// The paper's introduction names per-flow queuing as the pre-existing way
// to protect latency-sensitive traffic, at the cost of the network
// inspecting transport headers and keeping per-flow state. This package
// exists to put numbers behind that comparison: FQ isolates flows without
// any coupling, so a Cubic and a DCTCP flow each get their fair share
// regardless of congestion-control aggressiveness — but every flow still
// stands in its own (CoDel-controlled) queue, and the flow identification
// the paper's single-queue design avoids is mandatory here.
package fq

import (
	"time"

	"pi2/internal/aqm"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
)

// Config parametrizes the FQ-CoDel bottleneck.
type Config struct {
	// RateBps is the serialization rate in bits/s.
	RateBps float64
	// Queues is the number of hash buckets (default 1024).
	Queues int
	// Quantum is the DRR byte quantum (default 1514).
	Quantum int
	// Target and Interval parametrize each queue's CoDel
	// (defaults 5 ms / 100 ms).
	Target, Interval time.Duration
	// BufferPackets bounds the total backlog (default 10240, as in the
	// Linux default limit).
	BufferPackets int
	// Sojourn collects the per-packet queuing delay; nil uses the exact
	// stats.Sample.
	Sojourn stats.Quantiler
}

type flowQueue struct {
	pkts    []*packet.Packet
	head    int
	bytes   int
	deficit int
	codel   *aqm.CoDel
	isNew   bool
}

func (q *flowQueue) len() int { return len(q.pkts) - q.head }

func (q *flowQueue) push(p *packet.Packet) {
	q.pkts = append(q.pkts, p)
	q.bytes += p.WireLen
}

func (q *flowQueue) pop() *packet.Packet {
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	if q.head > 256 && q.head*2 >= len(q.pkts) {
		n := copy(q.pkts, q.pkts[q.head:])
		clear(q.pkts[n:])
		q.pkts = q.pkts[:n]
		q.head = 0
	}
	q.bytes -= p.WireLen
	return p
}

// Link is the FQ-CoDel bottleneck. It implements link.Bottleneck, with the
// same always-on auditor and packet-pool ownership rules as link.Link.
type Link struct {
	sim     *sim.Simulator
	cfg     Config
	rate    float64
	deliver func(*packet.Packet)
	pool    *packet.Pool

	queues  []*flowQueue
	newQ    []int // round-robin list of new (priority) queue indices
	oldQ    []int // round-robin list of old queue indices
	inList  []bool
	backlog int
	bytes   int
	busy    bool

	// txPkt is the packet currently serializing and txDoneFn the pre-bound
	// completion callback, as in link.Link.
	txPkt    *packet.Packet
	txDoneFn sim.Event

	// Statistics.
	Sojourn   stats.Quantiler // seconds
	delivered int64           // bytes since ResetStats
	drops     [2]int          // by link.DropAQM (CoDel) / link.DropOverflow
	marks     int
	tx        link.BusyMeter

	aud link.Auditor
}

// New creates an FQ-CoDel bottleneck.
func New(s *sim.Simulator, cfg Config, deliver func(*packet.Packet)) *Link {
	if cfg.Queues == 0 {
		cfg.Queues = 1024
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 1514
	}
	if cfg.Target == 0 {
		cfg.Target = 5 * time.Millisecond
	}
	if cfg.Interval == 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.BufferPackets == 0 {
		cfg.BufferPackets = 10240
	}
	soj := cfg.Sojourn
	if soj == nil {
		soj = &stats.Sample{}
	}
	l := &Link{
		sim:     s,
		cfg:     cfg,
		rate:    cfg.RateBps,
		deliver: deliver,
		pool:    s.PacketPool(),
		queues:  make([]*flowQueue, cfg.Queues),
		inList:  make([]bool, cfg.Queues),
		Sojourn: soj,
	}
	l.txDoneFn = l.txDone
	return l
}

// bucket hashes a flow id to a queue index (Fibonacci hashing; flows in
// the simulator are small integers, so this spreads them well enough).
func (l *Link) bucket(flowID int) int {
	h := uint64(flowID) * 0x9e3779b97f4a7c15
	return int(h % uint64(l.cfg.Queues))
}

// Enqueue classifies the packet into its flow queue.
func (l *Link) Enqueue(p *packet.Packet) {
	now := l.sim.Now()
	l.aud.Offered(p, now)
	if l.backlog >= l.cfg.BufferPackets {
		l.drop(p, link.DropOverflow)
		return
	}
	idx := l.bucket(p.FlowID)
	q := l.queues[idx]
	if q == nil {
		q = &flowQueue{codel: aqm.NewCoDel(aqm.CoDelConfig{
			Target: l.cfg.Target, Interval: l.cfg.Interval, ECN: true,
		})}
		l.queues[idx] = q
	}
	p.EnqueuedAt = now
	q.push(p)
	l.backlog++
	l.bytes += p.WireLen
	l.aud.Accepted(p, now)
	l.aud.Conserve(now, l.backlog, l.bytes)
	if !l.inList[idx] {
		// A queue becoming active enters the new-flow list with a
		// fresh quantum (RFC 8290 §4.1).
		q.isNew = true
		q.deficit = l.cfg.Quantum
		l.newQ = append(l.newQ, idx)
		l.inList[idx] = true
	}
	if !l.busy {
		l.startTx()
	}
}

// nextQueue picks the queue to serve: new flows first, then old flows,
// replenishing deficits DRR-style.
func (l *Link) nextQueue() (int, *flowQueue) {
	for {
		var idx int
		var fromNew bool
		switch {
		case len(l.newQ) > 0:
			idx = l.newQ[0]
			fromNew = true
		case len(l.oldQ) > 0:
			idx = l.oldQ[0]
		default:
			return -1, nil
		}
		q := l.queues[idx]
		if q.len() == 0 {
			// Queue drained: a new queue leaves the lists entirely;
			// an old queue also leaves (it re-enters on next packet).
			if fromNew {
				l.newQ = l.newQ[1:]
			} else {
				l.oldQ = l.oldQ[1:]
			}
			l.inList[idx] = false
			continue
		}
		if q.deficit <= 0 {
			// Exhausted quantum: rotate to the old list.
			q.deficit += l.cfg.Quantum
			if fromNew {
				l.newQ = l.newQ[1:]
				q.isNew = false
			} else {
				l.oldQ = l.oldQ[1:]
			}
			l.oldQ = append(l.oldQ, idx)
			continue
		}
		return idx, q
	}
}

// drop counts and recycles a dropped packet: a buffer overflow at enqueue,
// or a CoDel head drop of an already-accepted packet.
func (l *Link) drop(p *packet.Packet, r link.DropReason) {
	now := l.sim.Now()
	l.aud.DroppedPkt(p, now, r == link.DropAQM)
	l.drops[r]++
	l.pool.Release(p)
	l.aud.Conserve(now, l.backlog, l.bytes)
}

func (l *Link) startTx() {
	now := l.sim.Now()
	var p *packet.Packet
	for {
		_, q := l.nextQueue()
		if q == nil {
			return
		}
		cand := q.pop()
		l.backlog--
		l.bytes -= cand.WireLen
		switch q.codel.DequeueVerdict(cand, codelView{q}, now) {
		case aqm.Drop:
			l.drop(cand, link.DropAQM)
			continue
		case aqm.Mark:
			l.aud.Marked(cand, now)
			cand.ECN = packet.CE
			l.marks++
		}
		q.deficit -= cand.WireLen
		p = cand
		break
	}
	l.aud.Dequeued(p, now)
	l.aud.Conserve(now, l.backlog, l.bytes)
	l.Sojourn.Add((now - p.EnqueuedAt).Seconds())

	l.busy = true
	l.tx.Start(now)
	l.txPkt = p
	txTime := time.Duration(float64(p.WireLen*8) / l.rate * float64(time.Second))
	l.sim.After(txTime, l.txDoneFn)
}

// txDone completes the in-flight packet's serialization and hands it to the
// delivery callback.
func (l *Link) txDone() {
	p := l.txPkt
	l.txPkt = nil
	l.tx.Stop(l.sim.Now())
	l.delivered += int64(p.WireLen)
	l.aud.Delivered(p, l.sim.Now())
	l.deliver(p)
	l.busy = false
	if l.backlog > 0 {
		l.startTx()
	}
}

// codelView adapts a flowQueue to aqm.QueueInfo for its CoDel instance.
type codelView struct{ q *flowQueue }

func (v codelView) BacklogBytes() int   { return v.q.bytes }
func (v codelView) BacklogPackets() int { return v.q.len() }
func (v codelView) HeadSojourn(now time.Duration) time.Duration {
	if v.q.len() == 0 {
		return 0
	}
	return now - v.q.pkts[v.q.head].EnqueuedAt
}
func (v codelView) CapacityBps() float64 { return 0 }

// BacklogPackets returns the total queued packet count.
func (l *Link) BacklogPackets() int { return l.backlog }

// BacklogBytes returns the total queued byte count.
func (l *Link) BacklogBytes() int { return l.bytes }

// SetRateBps changes the link capacity; a packet already serializing
// completes at the old rate.
func (l *Link) SetRateBps(r float64) { l.rate = r }

// RateBps returns the current capacity in bits/s.
func (l *Link) RateBps() float64 { return l.rate }

// QueueDelayNow implements link.Bottleneck: backlog divided by capacity.
func (l *Link) QueueDelayNow() time.Duration {
	if l.rate <= 0 {
		return 0
	}
	return time.Duration(float64(l.bytes*8) / l.rate * float64(time.Second))
}

// SojournStats implements link.Bottleneck.
func (l *Link) SojournStats() stats.Quantiler { return l.Sojourn }

// DeliveredBytes implements link.Bottleneck.
func (l *Link) DeliveredBytes() int64 { return l.delivered }

// Counts implements link.Bottleneck: CoDel drops count as AQM drops.
func (l *Link) Counts() (aqmDrops, overflowDrops, marks int) {
	return l.drops[link.DropAQM], l.drops[link.DropOverflow], l.marks
}

// Audit returns the always-on invariant auditor.
func (l *Link) Audit() *link.Auditor { return &l.aud }

// ResetStats starts a fresh measurement window at the current time, with
// link.Link.ResetStats's semantics. The auditor is never reset.
func (l *Link) ResetStats() {
	l.Sojourn.Reset()
	l.delivered = 0
	l.drops, l.marks = [2]int{}, 0
	l.tx.Reset(l.sim.Now(), l.busy)
}

// Utilization returns the busy fraction since the last ResetStats (or
// since start).
func (l *Link) Utilization() float64 { return l.tx.Utilization(l.sim.Now(), l.busy) }
