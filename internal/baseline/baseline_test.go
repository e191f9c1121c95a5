package baseline

import (
	"testing"

	"repro/internal/frameacct"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
)

func cluster(n, s int) (*sim.Kernel, *phys.Net, *phys.Cluster) {
	k := sim.NewKernel(1)
	net := phys.NewNet(k)
	return k, net, phys.BuildCluster(net, n, s, 50)
}

// --- token ring ---

func TestTokenRingDelivers(t *testing.T) {
	k, net, c := cluster(4, 1)
	tr := NewTokenRing(k, c)
	got := 0
	tr.Stations[2].OnDeliver = func(p *micropacket.Packet) { got++ }
	tr.Send(0, micropacket.NewData(0, 2, 1, nil))
	tr.Start()
	k.RunUntil(5 * sim.Millisecond)
	if got != 1 {
		t.Fatalf("deliveries = %d", got)
	}
	if d := net.Acct.Losses[frameacct.LossFifoFull]; d != 0 {
		t.Fatalf("drops = %d", d)
	}
}

func TestTokenRingBroadcast(t *testing.T) {
	k, _, c := cluster(5, 1)
	tr := NewTokenRing(k, c)
	counts := make([]int, 5)
	for i, st := range tr.Stations {
		i := i
		st.OnDeliver = func(*micropacket.Packet) { counts[i]++ }
	}
	tr.Send(1, micropacket.NewData(1, micropacket.Broadcast, 0, nil))
	tr.Start()
	k.RunUntil(5 * sim.Millisecond)
	for i, n := range counts {
		want := 1
		if i == 1 {
			want = 0
		}
		if n != want {
			t.Fatalf("station %d deliveries = %d", i, n)
		}
	}
}

// TestTokenRingSingleTransmitter: the structural limitation the paper's
// slide 7 contrasts against — aggregate throughput is bounded by the
// token rotation, regardless of how many stations have traffic.
func TestTokenRingSingleTransmitter(t *testing.T) {
	k, _, c := cluster(4, 1)
	tr := NewTokenRing(k, c)
	// All stations saturated.
	for i := 0; i < 4; i++ {
		for j := 0; j < 64; j++ {
			tr.Send(i, micropacket.NewData(micropacket.NodeID(i), micropacket.NodeID((i+2)%4), uint8(j), nil))
		}
	}
	tr.Start()
	k.RunUntil(2 * sim.Millisecond)
	// Progress happens (token works) but is rotation-bound: per tour,
	// at most Burst frames per station.
	var sent uint64
	for _, st := range tr.Stations {
		sent += st.Sent
	}
	if sent == 0 {
		t.Fatal("token ring moved nothing")
	}
	maxPerTour := uint64(tr.Burst * 4)
	if sent > (tr.Rotations+2)*maxPerTour {
		t.Fatalf("sent %d frames in %d rotations — more than one transmitter at a time?", sent, tr.Rotations)
	}
}

func TestTokenRingBackpressure(t *testing.T) {
	k, _, c := cluster(2, 1)
	tr := NewTokenRing(k, c)
	tr.MaxQueue = 4
	okCount := 0
	for i := 0; i < 10; i++ {
		if tr.Send(0, micropacket.NewData(0, 1, uint8(i), nil)) {
			okCount++
		}
	}
	if okCount != 4 || tr.Stations[0].Refused != 6 {
		t.Fatalf("ok=%d refused=%d", okCount, tr.Stations[0].Refused)
	}
	tr.Start()
	k.RunUntil(sim.Millisecond)
}

// --- drop-tail ring ---

// TestDropTailDropsUnderAllToAll is the E4 contrast: greedy insertion
// with shallow FIFOs loses frames under all-to-all broadcast, which
// AmpNet's MAC provably does not.
func TestDropTailDropsUnderAllToAll(t *testing.T) {
	k, net, c := cluster(8, 1)
	sts := NewDropTailRing(k, c, 4)
	for i, st := range sts {
		for j := 0; j < 50; j++ {
			st.Send(micropacket.NewData(micropacket.NodeID(i), micropacket.Broadcast, uint8(j), nil))
		}
	}
	k.RunUntil(10 * sim.Millisecond)
	if net.Acct.Losses[frameacct.LossFifoFull] == 0 {
		t.Fatal("drop-tail baseline dropped nothing under saturation — not a valid strawman")
	}
}

func TestDropTailDeliversWhenIdle(t *testing.T) {
	k, net, c := cluster(3, 1)
	sts := NewDropTailRing(k, c, 16)
	got := 0
	sts[2].OnDeliver = func(*micropacket.Packet) { got++ }
	sts[0].Send(micropacket.NewData(0, 2, 0, nil))
	k.RunUntil(sim.Millisecond)
	if d := net.Acct.Losses[frameacct.LossFifoFull]; got != 1 || d != 0 {
		t.Fatalf("idle delivery got=%d drops=%d", got, d)
	}
}

// --- static switched network ---

func TestStaticNetDelivers(t *testing.T) {
	k, _, c := cluster(4, 2)
	sn := NewStaticNet(k, c)
	got := 0
	sn.Stations[3].OnDeliver = func(*micropacket.Packet) { got++ }
	sn.Send(0, micropacket.NewData(0, 3, 0, nil))
	k.RunUntil(sim.Millisecond)
	if got != 1 {
		t.Fatalf("deliveries = %d", got)
	}
}

// TestStaticNetOutageWindow: after a failure the static network stays
// down for the protection delay; AmpNet's rostering heals in
// microseconds on the same hardware (experiment E11 quantifies).
func TestStaticNetOutageWindow(t *testing.T) {
	k, _, c := cluster(4, 2)
	sn := NewStaticNet(k, c)
	sn.ReconvergeDelay = 5 * sim.Millisecond
	got := 0
	sn.Stations[1].OnDeliver = func(*micropacket.Packet) { got++ }

	// Kill the switch the ring uses (switch 0).
	k.After(sim.Millisecond, func() { c.Switches[0].Fail() })
	// During the outage, sends fail or vanish.
	k.After(2*sim.Millisecond, func() { sn.Send(0, micropacket.NewData(0, 1, 1, nil)) })
	k.RunUntil(4 * sim.Millisecond)
	if got != 0 {
		t.Fatal("delivery during outage window")
	}
	// After re-convergence, traffic flows again over switch 1.
	k.RunUntil(8 * sim.Millisecond)
	if sn.Reconvergences != 1 {
		t.Fatalf("reconvergences = %d", sn.Reconvergences)
	}
	k.After(0, func() { sn.Send(0, micropacket.NewData(0, 1, 2, nil)) })
	k.RunUntil(10 * sim.Millisecond)
	if got != 1 {
		t.Fatalf("post-repair deliveries = %d", got)
	}
}

func TestStaticNetMultipleFailuresSingleRepair(t *testing.T) {
	k, _, c := cluster(4, 2)
	sn := NewStaticNet(k, c)
	sn.ReconvergeDelay = sim.Millisecond
	k.After(0, func() {
		c.NodeLinks[0][0].Fail()
		c.NodeLinks[1][0].Fail()
	})
	k.RunUntil(5 * sim.Millisecond)
	if sn.Reconvergences != 1 {
		t.Fatalf("reconvergences = %d, want 1 (batched)", sn.Reconvergences)
	}
}
