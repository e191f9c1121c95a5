package parsim

import (
	"strings"
	"testing"

	"repro/internal/frameacct"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/wire"
)

// rig is two shards joined by one 200 m split link.
type rig struct {
	e        *Engine
	k        [2]*sim.Kernel
	n        [2]*phys.Net
	pa, pb   *phys.Port
	link     *phys.Link
	arrivals []sim.Time
	applied  []int // In of every deferred route the engine applied
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{}
	for i := 0; i < 2; i++ {
		r.k[i] = sim.NewKernel(uint64(i + 1))
		r.n[i] = phys.NewNet(r.k[i])
	}
	e, err := New(r.k[:], r.n[:], phys.PropTime(200), func(_ sim.Time, op phys.RouteOp) {
		r.applied = append(r.applied, op.In)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Shutdown)
	r.e = e
	r.pa = r.n[0].NewPort("a", nil)
	r.pb = r.n[1].NewPort("b", func(_ *phys.Port, f phys.Frame) {
		r.arrivals = append(r.arrivals, r.k[1].Now())
	})
	r.link = r.n[0].Connect(r.pa, r.pb, 200)
	return r
}

func frame() phys.Frame {
	p := micropacket.NewData(1, 2, 0, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	return phys.Frame{Pkt: p, Wire: wire.Size(wire.V1, p.Type, len(p.Data))}
}

// TestCrossShardDeliveryTiming: a frame over a split link arrives at
// exactly transmit start + serialization + propagation, as a local
// link would deliver it.
func TestCrossShardDeliveryTiming(t *testing.T) {
	r := newRig(t)
	f := frame()
	sendAt := sim.Time(5 * sim.Microsecond)
	r.k[0].At(sendAt, func() { r.pa.Send(f) })
	r.e.RunUntil(20 * sim.Microsecond)
	want := sendAt + phys.SerTime(f.Wire+r.n[0].IFG) + phys.PropTime(200)
	if len(r.arrivals) != 1 || r.arrivals[0] != want {
		t.Fatalf("arrivals = %v, want [%v]", r.arrivals, want)
	}
	if r.e.Stats.Frames != 1 {
		t.Fatalf("stats.Frames = %d, want 1", r.e.Stats.Frames)
	}
	if r.e.Now() != 20*sim.Microsecond || r.k[0].Now() != r.e.Now() || r.k[1].Now() != r.e.Now() {
		t.Fatalf("clocks not parked on deadline: engine=%v k0=%v k1=%v", r.e.Now(), r.k[0].Now(), r.k[1].Now())
	}
}

// TestDeadTimeSkip: with sparse events, the engine jumps between them
// instead of stepping every lookahead window.
func TestDeadTimeSkip(t *testing.T) {
	r := newRig(t)
	fired := 0
	r.k[0].At(1*sim.Millisecond, func() { fired++ })
	r.k[1].At(9*sim.Millisecond, func() { fired++ })
	r.e.RunUntil(10 * sim.Millisecond)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	// 10 ms at a 1 µs lookahead would be 10000 lockstep windows; the
	// skip should need only a handful.
	if r.e.Stats.Windows > 10 {
		t.Fatalf("windows = %d, want a handful (dead-time skip broken)", r.e.Stats.Windows)
	}
}

// TestActionsRunBeforeInstantEvents: a coordinator action at t runs
// after all events before t and before model events at t, and actions
// at one instant run in registration order.
func TestActionsRunBeforeInstantEvents(t *testing.T) {
	r := newRig(t)
	var order []string
	r.k[0].At(4999, func() { order = append(order, "before") })
	r.k[1].At(5000, func() { order = append(order, "model-at-t") })
	r.e.ScheduleAt(5000, func() { order = append(order, "action-1") })
	r.e.ScheduleAt(5000, func() { order = append(order, "action-2") })
	r.e.RunUntil(6000)
	want := []string{"before", "action-1", "action-2", "model-at-t"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if r.e.Stats.Actions != 2 {
		t.Fatalf("stats.Actions = %d, want 2", r.e.Stats.Actions)
	}
}

// TestDeferredRoutesApplyAtBarrier: deferred RouteOps apply at the
// next barrier, in source-shard FIFO order.
func TestDeferredRoutesApplyAtBarrier(t *testing.T) {
	r := newRig(t)
	r.k[0].At(100, func() {
		r.e.DeferRoute(0, 0, phys.RouteOp{Switch: 0, In: 1, Out: 7})
		r.e.DeferRoute(0, 0, phys.RouteOp{Switch: 0, In: 2, Out: 7})
	})
	r.e.RunUntil(10 * sim.Microsecond)
	if len(r.applied) != 2 || r.applied[0] != 1 || r.applied[1] != 2 {
		t.Fatalf("applied = %v, want [1 2]", r.applied)
	}
	if r.e.Stats.Routes != 2 {
		t.Fatalf("stats.Routes = %d, want 2", r.e.Stats.Routes)
	}
}

// TestShardPanicPropagates: a model panic inside a shard worker must
// surface as a sticky engine error naming the shard and window — never
// a hang, never a torn-down process.
func TestShardPanicPropagates(t *testing.T) {
	r := newRig(t)
	r.k[1].At(3000, func() { panic("injected model failure") })
	r.e.RunUntil(10 * sim.Microsecond)
	err := r.e.Err()
	if err == nil {
		t.Fatal("shard panic did not surface as an engine error")
	}
	for _, want := range []string{"shard 1", "injected model failure"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
	// The engine is now stuck: further runs refuse to advance.
	before := r.e.Now()
	if r.e.RunUntil(20*sim.Microsecond) != before {
		t.Fatal("engine advanced past a sticky failure")
	}
}

// TestSplitLinkFailDropsInFlight: a split link failed at a barrier
// (while both shards are parked) loses captured in-flight frames, and
// the loss is counted.
func TestSplitLinkFailDropsInFlight(t *testing.T) {
	r := newRig(t)
	r.k[0].At(1000, func() { r.pa.Send(frame()) })
	// Run just past transmit start, then cut the fiber at the barrier
	// before the frame's arrival.
	r.e.RunUntil(1100)
	r.link.Fail()
	r.e.RunUntil(20 * sim.Microsecond)
	if len(r.arrivals) != 0 {
		t.Fatalf("frame survived a mid-flight fiber cut: %v", r.arrivals)
	}
	if r.n[0].Acct.Losses[frameacct.LossLinkCut]+r.n[1].Acct.Losses[frameacct.LossLinkCut] == 0 {
		t.Fatal("in-flight loss not counted")
	}
}

// TestAssignShardsAndLookahead pins the canonical partition and the
// lookahead rule on the sharded multi-ring shape.
func TestAssignShardsAndLookahead(t *testing.T) {
	topo := phys.Sharded(4, 3, 2, 50)
	assign, err := phys.AssignShards(&topo, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < topo.Switches; s++ {
		if want := s / 2; assign.SwitchShard[s] != want {
			t.Fatalf("switch %d on shard %d, want %d", s, assign.SwitchShard[s], want)
		}
	}
	for n := 0; n < topo.Nodes; n++ {
		if want := n / 3; assign.NodeShard[n] != want {
			t.Fatalf("node %d on shard %d, want %d (nodes live with their switches)", n, assign.NodeShard[n], want)
		}
	}
	la, err := phys.Lookahead(&topo, assign)
	if err != nil {
		t.Fatal(err)
	}
	if want := phys.PropTime(50); la != want {
		t.Fatalf("lookahead = %v, want %v (trunk fiber)", la, want)
	}
	// Zero-length cross-shard fiber has no lookahead.
	bad := phys.Sharded(2, 2, 1, 0)
	assign2, err := phys.AssignShards(&bad, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := phys.Lookahead(&bad, assign2); err == nil {
		t.Fatal("zero-fiber fabric produced a lookahead")
	}
}
