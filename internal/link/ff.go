package link

import (
	"time"

	"pi2/internal/aqm"
	"pi2/internal/packet"
	"pi2/internal/stats"
)

// Fast-forward support. During an epoch the real queue is frozen — the ff
// engine evolves a fluid twin of the backlog — and the virtual traffic's
// statistics are patched in here. The always-on auditor deliberately stays
// untouched: its conservation identities cover the packet world only, and
// virtual packets never exist. The link-counter identity
// enqueues = dequeues + drops + backlog is preserved by accounting every
// virtually accepted packet as also virtually drained within the epoch (the
// fluid backlog excursion lives only inside the engine).

// FFShift translates the queued packets' enqueue timestamps and the AQM's
// internal clocks by delta when the simulator jumps over an epoch, so
// post-epoch sojourn measurements are not inflated by the jump. The busy
// accounting is intentionally NOT shifted: the stay-in-epoch band guarantees
// a backlogged link, so the epoch counts as busy time — the in-flight
// packet's (shifted) completion absorbs delta into the busy total.
func (l *Link) FFShift(delta time.Duration) {
	if delta <= 0 {
		return
	}
	for i := l.head; i < len(l.queue); i++ {
		l.queue[i].EnqueuedAt += delta
	}
	if ffa, ok := l.aqm.(aqm.FastForwarder); ok {
		ffa.FFShift(delta)
	}
}

// FFApply patches one fast-forward period's virtual traffic into the link
// statistics: accepted packets drained at queuing delay qdelay (marked of
// them CE-marked), dropped packets rejected by the AQM. The sojourn
// collector absorbs the period in O(1) when it supports bulk insertion.
func (l *Link) FFApply(accepted, marked, dropped int, qdelay time.Duration) {
	l.enqueues += accepted + dropped
	l.dequeues += accepted
	l.marks += marked
	if dropped > 0 {
		l.drops[DropAQM] += dropped
	}
	l.Delivered.Add(accepted * packet.FullLen)
	sec := qdelay.Seconds()
	if ba, ok := l.Sojourn.(stats.BulkAdder); ok {
		ba.AddN(sec, int64(accepted))
	} else {
		for i := 0; i < accepted; i++ {
			l.Sojourn.Add(sec)
		}
	}
}

// FFAQM returns the attached AQM's fast-forward interface, if it has one.
func (l *Link) FFAQM() (aqm.FastForwarder, bool) {
	ffa, ok := l.aqm.(aqm.FastForwarder)
	return ffa, ok
}

// Busy reports whether the transmitter is serializing a packet.
func (l *Link) Busy() bool { return l.busy }

// BufferPackets returns the queue's packet capacity.
func (l *Link) BufferPackets() int { return l.cfg.BufferPackets }
