package link

import (
	"fmt"
	"time"

	"pi2/internal/packet"
	"pi2/internal/stats"
)

// Bottleneck is the queue surface the scenario assembler drives. Link,
// core.DualLink and fq.Link implement it; each owns an Auditor. Callers
// on the per-packet path bind Enqueue to the concrete type once rather
// than dispatching through the interface for every packet.
type Bottleneck interface {
	Enqueue(*packet.Packet)
	RateBps() float64
	SetRateBps(float64)
	// QueueDelayNow is the backlog divided by the current capacity.
	QueueDelayNow() time.Duration
	// DeliveredBytes and Utilization cover the measurement window that
	// ResetStats restarts, as do the collector and counters below.
	DeliveredBytes() int64
	Utilization() float64
	ResetStats()
	// SojournStats is the per-packet queuing-delay collector (seconds).
	SojournStats() stats.Quantiler
	// Counts returns the enqueue-policy drops (AQM, CoDel, Classic
	// squared drop), buffer-overflow drops and CE marks.
	Counts() (aqmDrops, overflowDrops, marks int)
	Audit() *Auditor
}

// Auditor is the always-on invariant checker wired into the link's hot
// path. Every Link owns one; it observes each packet event (offer, drop,
// mark, dequeue, delivery) and asserts the structural invariants that must
// hold for any AQM and any traffic mix:
//
//   - packet and byte conservation: offered = accepted + dropped, and
//     accepted − dequeued = backlog, continuously after every event
//   - non-negative queue occupancy (packets and bytes)
//   - ECN sanity: CE marks land only on ECN-capable (ECT) packets, and
//     marks + drops never exceed arrivals
//   - monotone clock: link events never observe time running backwards
//
// Violations are recorded (not panicked) so a failing run can report every
// broken invariant with its virtual timestamp; the experiment harness
// checks Violations() after each run and fails the run with the full
// report. The counters double as the byte-level accounting used by the
// conservation tests.
type Auditor struct {
	// Offered/accepted/dropped cover the enqueue side; dequeued/delivered
	// the drain side. A dequeued packet that is still serializing is in
	// neither the backlog nor delivered.
	OfferedPackets   int
	OfferedBytes     int64
	AcceptedPackets  int
	AcceptedBytes    int64
	DroppedPackets   int
	DroppedBytes     int64
	DequeuedPackets  int
	DequeuedBytes    int64
	DeliveredPackets int
	DeliveredBytes   int64
	MarkedPackets    int
	// ECTOffered counts offered packets that were ECN-capable on arrival.
	ECTOffered int

	// marksByFlow ledgers CE marks per flow ID, allocated lazily on the
	// first mark (an unmarked run pays nothing). Map writes to existing
	// keys don't allocate, so the mark path stays on its zero-allocs/op
	// budget; the per-flow counts are what the accurate-ECN conformance
	// tests reconcile against each sender's CE-acked ledger.
	marksByFlow map[int]int

	// Drops split by where the packet was when it died: before admission
	// (AQM enqueue verdict, buffer overflow) or out of the backlog
	// (CoDel-style head drop). The split is what makes the conservation
	// identities exact.
	droppedPrePkts   int
	droppedPreBytes  int64
	droppedPostPkts  int
	droppedPostBytes int64

	lastEvent  time.Duration
	violations []string
	dropped    int // violations beyond the cap
}

// maxViolations caps the stored report; one broken invariant usually
// repeats for every subsequent packet.
const maxViolations = 16

func (a *Auditor) violate(now time.Duration, format string, args ...any) {
	if len(a.violations) >= maxViolations {
		a.dropped++
		return
	}
	a.violations = append(a.violations,
		fmt.Sprintf("t=%v: %s", now, fmt.Sprintf(format, args...)))
}

// clock asserts the monotone-clock invariant for link events.
func (a *Auditor) clock(now time.Duration) {
	if now < a.lastEvent {
		a.violate(now, "monotone clock: event time %v before previous event %v", now, a.lastEvent)
		return
	}
	a.lastEvent = now
}

// Conserve asserts the continuous conservation identities against the
// queue's live occupancy. The observation methods below are exported so
// other bottleneck implementations (core.DualLink, fq.Link) can wire the
// same auditor into their data paths; within a single simulation they are
// only ever called from that simulation's goroutine.
func (a *Auditor) Conserve(now time.Duration, backlogPackets, backlogBytes int) {
	if backlogPackets < 0 || backlogBytes < 0 {
		a.violate(now, "negative occupancy: backlog %d packets / %d bytes",
			backlogPackets, backlogBytes)
	}
	if a.OfferedPackets != a.AcceptedPackets+a.droppedPrePkts {
		a.violate(now, "packet conservation: offered %d != accepted %d + dropped-at-enqueue %d",
			a.OfferedPackets, a.AcceptedPackets, a.droppedPrePkts)
	}
	if a.OfferedBytes != a.AcceptedBytes+a.droppedPreBytes {
		a.violate(now, "byte conservation: offered %d != accepted %d + dropped-at-enqueue %d",
			a.OfferedBytes, a.AcceptedBytes, a.droppedPreBytes)
	}
	if got := a.AcceptedPackets - a.DequeuedPackets - a.droppedPostPkts; got != backlogPackets {
		a.violate(now, "packet conservation: accepted-dequeued-headdropped %d != backlog %d",
			got, backlogPackets)
	}
	if got := a.AcceptedBytes - a.DequeuedBytes - a.droppedPostBytes; got != int64(backlogBytes) {
		a.violate(now, "byte conservation: accepted-dequeued-headdropped %d != backlog %d",
			got, backlogBytes)
	}
	if a.MarkedPackets+a.DroppedPackets > a.OfferedPackets {
		a.violate(now, "ECN accounting: marks %d + drops %d exceed arrivals %d",
			a.MarkedPackets, a.DroppedPackets, a.OfferedPackets)
	}
}

// Offered observes a packet arriving at the queue, before any verdict.
func (a *Auditor) Offered(p *packet.Packet, now time.Duration) {
	a.clock(now)
	a.OfferedPackets++
	a.OfferedBytes += int64(p.WireLen)
	if p.ECN.ECNCapable() {
		a.ECTOffered++
	}
}

// DroppedPkt observes a drop. fromQueue distinguishes a head drop (the
// packet was already accepted into the backlog) from an enqueue-time drop.
func (a *Auditor) DroppedPkt(p *packet.Packet, now time.Duration, fromQueue bool) {
	a.DroppedPackets++
	a.DroppedBytes += int64(p.WireLen)
	if fromQueue {
		a.droppedPostPkts++
		a.droppedPostBytes += int64(p.WireLen)
	} else {
		a.droppedPrePkts++
		a.droppedPreBytes += int64(p.WireLen)
	}
}

// Marked observes a CE mark; p still carries its pre-mark codepoint.
func (a *Auditor) Marked(p *packet.Packet, now time.Duration) {
	a.MarkedPackets++
	if a.marksByFlow == nil {
		a.marksByFlow = make(map[int]int, 8)
	}
	a.marksByFlow[p.FlowID]++
	if !p.ECN.ECNCapable() {
		a.violate(now, "ECN sanity: CE mark on %v packet (flow %d seq %d)",
			p.ECN, p.FlowID, p.Seq)
	}
}

// MarksForFlow returns the CE marks this bottleneck applied to one flow's
// packets — the AQM side of the accurate-ECN conservation identity (the
// sender side is tcp.Endpoint.CEAcked).
func (a *Auditor) MarksForFlow(flowID int) int { return a.marksByFlow[flowID] }

// Accepted observes a packet entering the backlog.
func (a *Auditor) Accepted(p *packet.Packet, now time.Duration) {
	a.AcceptedPackets++
	a.AcceptedBytes += int64(p.WireLen)
}

// Dequeued observes a packet leaving the backlog for the transmitter.
func (a *Auditor) Dequeued(p *packet.Packet, now time.Duration) {
	a.clock(now)
	a.DequeuedPackets++
	a.DequeuedBytes += int64(p.WireLen)
}

// Delivered observes a packet completing serialization.
func (a *Auditor) Delivered(p *packet.Packet, now time.Duration) {
	a.clock(now)
	a.DeliveredPackets++
	a.DeliveredBytes += int64(p.WireLen)
	if a.DeliveredPackets > a.DequeuedPackets {
		a.violate(now, "conservation: delivered %d packets but only %d dequeued",
			a.DeliveredPackets, a.DequeuedPackets)
	}
}

// Violations returns the recorded invariant failures (nil when clean).
func (a *Auditor) Violations() []string {
	if len(a.violations) == 0 {
		return nil
	}
	out := append([]string(nil), a.violations...)
	if a.dropped > 0 {
		out = append(out, fmt.Sprintf("... and %d further violations", a.dropped))
	}
	return out
}

// Err formats the violations as a single error-report string, prefixed by
// the component name; it returns "" when every invariant held.
func (a *Auditor) Err(component string) string {
	v := a.Violations()
	if len(v) == 0 {
		return ""
	}
	s := fmt.Sprintf("%s: %d invariant violation(s):", component, len(v))
	for _, line := range v {
		s += "\n  " + line
	}
	return s
}

// Audit returns the link's always-on invariant auditor.
func (l *Link) Audit() *Auditor { return &l.aud }
