package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/core"
	"pi2/internal/packet"
	"pi2/internal/traffic"
)

// shardedScenario is a small but genuinely partitionable cell: several bulk
// flows across two RTT classes plus a UDP source kept in the link domain.
func shardedScenario(seed int64, shards int) Scenario {
	sc := Scenario{
		Seed:        seed,
		LinkRateBps: 20e6,
		NewAQM:      PI2Factory(20 * time.Millisecond),
		Bulk: []traffic.BulkFlowSpec{
			{CC: "cubic", Count: 3, RTT: 10 * time.Millisecond, Label: "classic"},
			{CC: "dctcp", Count: 3, RTT: 20 * time.Millisecond, Label: "scalable"},
		},
		UDP:      []traffic.UDPSpec{{RateBps: 1e6}},
		Duration: 5 * time.Second,
		WarmUp:   2 * time.Second,
		Shards:   shards,
	}
	return sc
}

// TestShardableGate pins the fallback predicate: sharding needs an explicit
// count, at least two bulk flows and a positive one-way delay everywhere.
func TestShardableGate(t *testing.T) {
	sc := shardedScenario(1, 4)
	if !shardable(sc) {
		t.Fatal("canonical sharded scenario not shardable")
	}
	sc.Shards = 1
	if shardable(sc) {
		t.Error("shards=1 must use the classic path")
	}
	sc = shardedScenario(1, 4)
	sc.Bulk = []traffic.BulkFlowSpec{{CC: "cubic", Count: 1, RTT: 10 * time.Millisecond}}
	if shardable(sc) {
		t.Error("a single bulk flow cannot be partitioned")
	}
	sc = shardedScenario(1, 4)
	sc.Bulk[0].RTT = 0
	if shardable(sc) {
		t.Error("zero-RTT flow leaves no lookahead; must fall back")
	}
	if w := shardLookahead(shardedScenario(1, 4)); w != 5*time.Millisecond {
		t.Errorf("lookahead = %v, want 5ms (min RTT/2)", w)
	}
}

// withDualPI2 swaps a scenario's link.Link + AQM for the DualPI2 bottleneck.
func withDualPI2(sc Scenario) Scenario {
	sc.NewAQM = nil
	sc.NewBottleneck = DualPI2Bottleneck(core.DualConfig{}, nil)
	return sc
}

// TestShardedDeterministicAcrossRuns: for a fixed shard count the coordinator
// must be a deterministic machine — repeated runs are deep-equal, including
// event counts, despite real goroutine parallelism inside each window.
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   Scenario
	}{
		{"pi2", shardedScenario(42, 4)},
		{"dualpi2", withDualPI2(shardedScenario(42, 4))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := Run(tc.sc), Run(tc.sc)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("sharded runs with identical scenarios differ")
			}
			if a.Events == 0 || len(a.Groups) != 2 {
				t.Fatalf("implausible sharded result: %d events, %d groups", a.Events, len(a.Groups))
			}
		})
	}
}

// TestShardedPhysicsMatchesUnsharded: sharding redistributes where propagation
// is modeled but not how much of it there is, so aggregate physics — link
// utilization and total goodput — must land close to the classic path.
// (Bitwise equality is explicitly NOT required across shard counts.)
func TestShardedPhysicsMatchesUnsharded(t *testing.T) {
	classic := Run(shardedScenario(7, 0))
	shard := Run(shardedScenario(7, 4))
	if d := shard.Utilization - classic.Utilization; d > 0.1 || d < -0.1 {
		t.Errorf("utilization drifted: classic %.3f vs sharded %.3f",
			classic.Utilization, shard.Utilization)
	}
	sum := func(r *Result) (tot float64) {
		for _, g := range r.Groups {
			for _, rate := range g.FlowRates {
				tot += rate
			}
		}
		return
	}
	sc, ss := sum(classic), sum(shard)
	if ss < sc*0.8 || ss > sc*1.2 {
		t.Errorf("aggregate goodput drifted: classic %.0f vs sharded %.0f", sc, ss)
	}
	if shard.Sojourn.N() == 0 {
		t.Error("sharded run recorded no sojourn samples")
	}
}

// TestShardedFallbackIsByteIdentical: a scenario the gate rejects must take
// the classic path and reproduce the unsharded result exactly, so setting
// -shards on a non-partitionable grid is a no-op rather than a behavior fork.
// The same holds for -ff on a bottleneck the fast-forward engine refuses.
func TestShardedFallbackIsByteIdentical(t *testing.T) {
	oneFlow := testScenario(42)
	oneFlow.Bulk = oneFlow.Bulk[:1] // one flow: not partitionable
	for _, tc := range []struct {
		name string
		sc   Scenario
		knob func(*Scenario)
	}{
		{"pi2-shards", oneFlow, func(sc *Scenario) { sc.Shards = 8 }},
		{"dualpi2-shards", withDualPI2(oneFlow), func(sc *Scenario) { sc.Shards = 8 }},
		{"dualpi2-ff", withDualPI2(ffTwinScenario(false)), func(sc *Scenario) { sc.FastForward = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forced := tc.sc
			tc.knob(&forced)
			a, b := Run(tc.sc), Run(forced)
			// The knob is scenario metadata, not a result field, so full
			// DeepEqual holds.
			if !reflect.DeepEqual(a, b) {
				t.Fatal("scenario with a rejected knob diverged from the classic run")
			}
			if b.FFEpochs != 0 || b.FFZeroEpochs != 0 {
				t.Fatalf("fast-forward engaged: %d epochs, %d zero epochs", b.FFEpochs, b.FFZeroEpochs)
			}
		})
	}
}

// TestShardedGridInvariantAcrossJobs drives the full campaign plumbing:
// the chaos grid at -shards 4 must produce identical points whether cells
// run serially or on a wide worker pool — TaskCtx carries the shard count,
// and within a fixed count each sharded cell is deterministic.
func TestShardedGridInvariantAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run in -short mode")
	}
	run := func(jobs int) []ChaosPoint {
		pts, failed, err := Chaos(Options{Quick: true, TimeDiv: 40, Shards: 4, Jobs: jobs})
		if err != nil {
			t.Fatalf("jobs=%d: %v (%v)", jobs, err, failed)
		}
		return pts
	}
	serial := run(1)
	wide := run(8)
	if !reflect.DeepEqual(serial, wide) {
		t.Fatal("sharded chaos points differ between jobs=1 and jobs=8")
	}
	if reflect.DeepEqual(serial, run(1)) != true {
		t.Fatal("sharded chaos grid not repeatable")
	}
}

// TestTargetOverrideChangesControl: the -target knob must reach the AQM —
// a much tighter target yields a different (lower-delay) operating point on
// the same seed.
func TestTargetOverrideChangesControl(t *testing.T) {
	cell := func(target time.Duration) HeavyPoint {
		o := Options{Quick: true, TimeDiv: 20, Target: target}
		return runHeavyCell(o, &campaign.TaskCtx{Seed: 1}, 10, "pi2")
	}
	def := cell(0) // the paper's 20 ms
	tight := cell(2 * time.Millisecond)
	if def.QMeanMs == tight.QMeanMs {
		t.Fatal("target override had no effect on queue delay")
	}
	if tight.QMeanMs >= def.QMeanMs {
		t.Errorf("2 ms target mean delay %.2f ms not below 20 ms target's %.2f ms",
			tight.QMeanMs, def.QMeanMs)
	}
}

// TestShardedWireAuditCatchesLoss injects a mailbox fault — one cross-domain
// message swallowed at a barrier merge — and requires the wire auditor to
// fail the run with a conservation report.
func TestShardedWireAuditCatchesLoss(t *testing.T) {
	dropped := false
	shardDropCross = func(dst int, p *packet.Packet) bool {
		if !dropped && dst == 0 {
			dropped = true
			return true
		}
		return false
	}
	defer func() {
		shardDropCross = nil
		r := recover()
		if r == nil {
			t.Fatal("lost cross-domain packet did not fail the run")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "cross-domain wires") {
			t.Fatalf("unexpected panic: %v", r)
		}
		if !strings.Contains(msg, "conservation") {
			t.Errorf("violation report does not name conservation: %q", msg)
		}
		if !dropped {
			t.Error("drop hook never fired")
		}
	}()
	Run(shardedScenario(3, 4))
}
