package experiments

import (
	"time"

	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/tcp"
	"pi2/internal/traffic"
)

// This file is Run's sharded placement (runner.go): the same scenario
// executed on the conservative-PDES coordinator. Domain 0 owns the
// bottleneck, the impairment layer and every co-located workload (staged,
// UDP, web — their handoffs stay direct calls exactly as in the
// single-simulator placement); bulk flows are partitioned round-robin
// across domains 1..N-1. Propagation splits onto the wires: the
// sender→link mailbox edge carries RTT/2, the link→receiver edge carries
// the remaining RTT−RTT/2, and the endpoint's internal ACK path becomes
// zero-delay (tcp.Config.SplitPropagation), so the sender still observes
// BaseRTT + queuing + serialization. The lookahead window is the minimum
// one-way delay over all partitioned flows.

// shardDropCross is a test-only hook that swallows cross-domain messages
// at the barrier merge, modeling a lossy mailbox fabric; the wire auditor
// must then flag the conservation violation and fail the run.
var shardDropCross func(dst int, p *packet.Packet) bool

// shardable reports whether a scenario can (and should) run on the
// coordinator: an explicit shard count, at least two bulk flows to
// partition, and a positive one-way propagation delay on every bulk flow
// to serve as lookahead. Everything else falls back to the classic
// single-simulator path, byte-identical to an unsharded build.
func shardable(sc Scenario) bool {
	if sc.Shards < 2 {
		return false
	}
	n := 0
	for _, b := range sc.Bulk {
		if b.Count <= 0 {
			continue
		}
		if b.RTT/2 <= 0 {
			return false
		}
		n += b.Count
	}
	return n >= 2
}

// shardLookahead is the coordinator window: the minimum one-way (RTT/2)
// propagation delay across the partitioned bulk flows.
func shardLookahead(sc Scenario) time.Duration {
	var w time.Duration
	for _, b := range sc.Bulk {
		if b.Count <= 0 {
			continue
		}
		if half := b.RTT / 2; w == 0 || half < w {
			w = half
		}
	}
	return w
}

// shardPlan is Run's sharded placement: the coordinator and its domain
// simulators, the wire auditor, and the routing table mapping bulk flow IDs
// to their owning domain and link→receiver wire. Flow IDs are assigned
// sequentially, so plain slices (not maps) keep the delivery hot path
// allocation- and hash-free. IDs beyond the table (staged, UDP, web) are
// link-local and fall through to the dispatcher.
type shardPlan struct {
	co    *sim.Coordinator
	sims  []*sim.Simulator
	wires link.WireAuditor
	owner []int32
	dlv   []time.Duration
	hand  []func(*packet.Packet)
	flows int // bulk flows placed so far; drives the round-robin
}

// shardDomains is the coordinator's domain count: the link domain plus
// Shards-1 endpoint domains, capped so that every endpoint domain owns at
// least one flow.
func shardDomains(sc Scenario) int {
	totalBulk := 0
	for _, b := range sc.Bulk {
		totalBulk += b.Count
	}
	return min(sc.Shards-1, totalBulk) + 1
}

func newShardPlan(co *sim.Coordinator) *shardPlan {
	p := &shardPlan{co: co}
	co.DropCrossHook = shardDropCross
	co.SetWireAudit(&p.wires)
	for i := 0; i < co.Domains(); i++ {
		p.sims = append(p.sims, co.Domain(i).Sim())
	}
	return p
}

// route returns the bottleneck's delivery callback: partitioned flows leave
// on their link→receiver wire; everything else (staged, UDP, web) is a
// direct dispatcher call, exactly as in the single-simulator placement.
func (p *shardPlan) route(d *link.Dispatcher) func(*packet.Packet) {
	linkDom := p.co.Domain(0)
	return func(pk *packet.Packet) {
		if id := pk.FlowID; id < len(p.owner) && p.owner[id] != 0 {
			linkDom.Send(int(p.owner[id]), p.dlv[id], pk, p.hand[id])
			return
		}
		d.Deliver(pk)
	}
}

// startBulk creates one bulk group's flows, round-robin over the endpoint
// domains in creation order so the partition is a pure function of the
// scenario, and appends each flow to its domain's list in doms.
func (p *shardPlan) startBulk(b link.Bottleneck, firstID int, spec traffic.BulkFlowSpec,
	doms [][]*tcp.Endpoint) (*traffic.BulkGroup, int) {
	// Hoisted once: writing b.Enqueue at a Send call site would materialize
	// a fresh method value per packet on the hot path.
	linkEnq := traffic.Ingress(b)
	fwd := spec.RTT / 2          // sender→link wire
	dlv := spec.RTT - spec.RTT/2 // link→receiver wire
	g := &traffic.BulkGroup{Spec: spec, Flows: make([]*tcp.Endpoint, 0, spec.Count)}
	id := firstID
	for i := 0; i < spec.Count; i++ {
		domID := 1 + p.flows%(len(p.sims)-1)
		p.flows++
		dom, es := p.co.Domain(domID), p.sims[domID]
		cc, mode, err := tcp.NewCCFeedback(spec.CC, spec.Feedback)
		if err != nil {
			panic(err)
		}
		ep := tcp.NewWithEnqueuer(es, func(pk *packet.Packet) { dom.Send(0, fwd, pk, linkEnq) }, tcp.Config{
			ID:               id,
			CC:               cc,
			ECN:              mode,
			BaseRTT:          spec.RTT,
			SACK:             spec.SACK,
			AckEvery:         spec.AckEvery,
			SplitPropagation: true,
		})
		for len(p.owner) <= id {
			p.owner = append(p.owner, 0)
			p.dlv = append(p.dlv, 0)
			p.hand = append(p.hand, nil)
		}
		p.owner[id], p.dlv[id], p.hand[id] = int32(domID), dlv, ep.DeliverData
		es.At(spec.StartAt, ep.Start)
		if spec.StopAt > spec.StartAt {
			es.At(spec.StopAt, ep.Stop)
		}
		g.Flows = append(g.Flows, ep)
		doms[domID] = append(doms[domID], ep)
		id++
	}
	return g, id
}
