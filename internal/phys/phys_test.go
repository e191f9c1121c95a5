package phys

import (
	"testing"

	"repro/internal/frameacct"
	"repro/internal/micropacket"
	"repro/internal/sim"
	"repro/internal/wire"
)

func testNet() (*sim.Kernel, *Net) {
	k := sim.NewKernel(1)
	return k, NewNet(k)
}

func dataFrame(src, dst micropacket.NodeID) Frame {
	return newFrameV1(micropacket.NewData(src, dst, 0, []byte{1, 2, 3}))
}

// newFrameV1 sizes a frame under the default v1 wire format, standing
// in for Net.NewFrame in tests that build frames before picking a net.
func newFrameV1(p *micropacket.Packet) Frame {
	return Frame{Pkt: p, Wire: wire.Size(wire.V1, p.Type, len(p.Data))}
}

func TestSerTime(t *testing.T) {
	// 24 bytes at 1.0625 Gbaud, 10 baud/byte: 240/1.0625 ≈ 225.9 ns.
	got := SerTime(24)
	if got < 225 || got > 227 {
		t.Fatalf("SerTime(24) = %v, want ≈226ns", got)
	}
	// A full gigabit second moves 106.25 MB.
	if SerTime(106_250_000) < 999*sim.Millisecond || SerTime(106_250_000) > 1001*sim.Millisecond {
		t.Fatalf("SerTime(106.25MB) = %v, want ≈1s", SerTime(106_250_000))
	}
}

func TestPropTime(t *testing.T) {
	if PropTime(1000) != 5*sim.Microsecond {
		t.Fatalf("PropTime(1km) = %v, want 5µs", PropTime(1000))
	}
	if PropTime(0) != 0 {
		t.Fatalf("PropTime(0) = %v", PropTime(0))
	}
}

func TestPointToPointDelivery(t *testing.T) {
	k, n := testNet()
	var gotAt sim.Time = -1
	var got Frame
	a := n.NewPort("a", nil)
	b := n.NewPort("b", func(_ *Port, f Frame) { gotAt, got = k.Now(), f })
	n.Connect(a, b, 100) // 500 ns propagation

	f := dataFrame(1, 2)
	if !a.Send(f) {
		t.Fatal("send refused")
	}
	k.Run()
	if gotAt < 0 {
		t.Fatal("frame not delivered")
	}
	want := SerTime(f.Wire+n.IFG) + PropTime(100)
	if gotAt != want {
		t.Fatalf("delivered at %v, want %v", gotAt, want)
	}
	if got.Pkt.Src != 1 {
		t.Fatalf("wrong frame delivered: %v", got.Pkt)
	}
	if a := &n.Acct; a.WireDelivered != 1 || a.WireLosses() != 0 {
		t.Fatalf("ledger: delivered %d, wire losses %v", a.WireDelivered, a.Losses)
	}
}

func TestFIFOSerializationOrder(t *testing.T) {
	k, n := testNet()
	var order []uint8
	a := n.NewPort("a", nil)
	b := n.NewPort("b", func(_ *Port, f Frame) { order = append(order, f.Pkt.Tag) })
	n.Connect(a, b, 10)
	for i := 0; i < 10; i++ {
		p := micropacket.NewData(1, 2, uint8(i), nil)
		if !a.Send(newFrameV1(p)) {
			t.Fatalf("send %d refused", i)
		}
	}
	k.Run()
	if len(order) != 10 {
		t.Fatalf("delivered %d frames, want 10", len(order))
	}
	for i, tag := range order {
		if tag != uint8(i) {
			t.Fatalf("out of order at %d: %v", i, order)
		}
	}
}

func TestBackToBackSpacing(t *testing.T) {
	k, n := testNet()
	var times []sim.Time
	a := n.NewPort("a", nil)
	b := n.NewPort("b", func(_ *Port, f Frame) { times = append(times, k.Now()) })
	n.Connect(a, b, 0)
	f := dataFrame(1, 2)
	a.Send(f)
	a.Send(f)
	k.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	gap := times[1] - times[0]
	if gap != SerTime(f.Wire+n.IFG) {
		t.Fatalf("inter-delivery gap %v, want one serialization time %v", gap, SerTime(f.Wire+n.IFG))
	}
}

func TestFIFOOverflowDrops(t *testing.T) {
	k, n := testNet()
	a := n.NewPort("a", nil)
	b := n.NewPort("b", nil)
	n.Connect(a, b, 10)
	a.SetCapacity(4)
	ok := 0
	for i := 0; i < 10; i++ {
		if a.Send(dataFrame(1, 2)) {
			ok++
		}
	}
	if ok != 4 {
		t.Fatalf("accepted %d, want 4", ok)
	}
	if d := n.Acct.Losses[frameacct.LossFifoFull]; d != 6 {
		t.Fatalf("drops = %d, want 6", d)
	}
	k.Run()
}

func TestUnconnectedSendFails(t *testing.T) {
	_, n := testNet()
	a := n.NewPort("a", nil)
	if a.Send(dataFrame(1, 2)) {
		t.Fatal("send on unconnected port succeeded")
	}
	if n.Acct.Losses[frameacct.LossDarkPort] != 1 {
		t.Fatal("loss not counted")
	}
}

func TestLinkFailLosesInFlight(t *testing.T) {
	k, n := testNet()
	delivered := 0
	a := n.NewPort("a", nil)
	b := n.NewPort("b", func(_ *Port, f Frame) { delivered++ })
	l := n.Connect(a, b, 10000) // 50 µs propagation
	a.Send(dataFrame(1, 2))
	// Cut the fiber while the frame is in flight.
	k.After(10*sim.Microsecond, func() { l.Fail() })
	k.Run()
	if delivered != 0 {
		t.Fatal("frame delivered across failed link")
	}
	if l := n.Acct.Losses[frameacct.LossLinkCut]; l != 1 {
		t.Fatalf("lost = %d, want 1", l)
	}
}

func TestLossOfLightNotification(t *testing.T) {
	k, n := testNet()
	var aEvents, bEvents []bool
	var aAt sim.Time
	a := n.NewPort("a", nil)
	b := n.NewPort("b", nil)
	a.SetStatusHandler(func(_ *Port, up bool) { aEvents = append(aEvents, up); aAt = k.Now() })
	b.SetStatusHandler(func(_ *Port, up bool) { bEvents = append(bEvents, up) })
	l := n.Connect(a, b, 10)
	k.After(100*sim.Microsecond, func() { l.Fail() })
	k.Run()
	if len(aEvents) != 1 || aEvents[0] || len(bEvents) != 1 || bEvents[0] {
		t.Fatalf("events: a=%v b=%v", aEvents, bEvents)
	}
	if aAt != 100*sim.Microsecond+n.Detect {
		t.Fatalf("detected at %v, want %v", aAt, 100*sim.Microsecond+n.Detect)
	}
	k.After(0, func() { l.Restore() })
	k.Run()
	if len(aEvents) != 2 || !aEvents[1] {
		t.Fatalf("restore not seen: %v", aEvents)
	}
}

func TestSendAfterRestore(t *testing.T) {
	k, n := testNet()
	delivered := 0
	a := n.NewPort("a", nil)
	b := n.NewPort("b", func(_ *Port, f Frame) { delivered++ })
	l := n.Connect(a, b, 10)
	l.Fail()
	if a.Send(dataFrame(1, 2)) {
		t.Fatal("send on dark link accepted")
	}
	l.Restore()
	if !a.Send(dataFrame(1, 2)) {
		t.Fatal("send after restore refused")
	}
	k.Run()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
}

func TestDoubleFailRestoreIdempotent(t *testing.T) {
	k, n := testNet()
	a := n.NewPort("a", nil)
	b := n.NewPort("b", nil)
	l := n.Connect(a, b, 10)
	l.Fail()
	l.Fail()
	l.Restore()
	l.Restore()
	k.Run()
	if !l.Up() {
		t.Fatal("link should be up")
	}
}

func TestConnectTwicePanics(t *testing.T) {
	_, n := testNet()
	a := n.NewPort("a", nil)
	b := n.NewPort("b", nil)
	c := n.NewPort("c", nil)
	n.Connect(a, b, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double connect did not panic")
		}
	}()
	n.Connect(a, c, 1)
}

func TestPeer(t *testing.T) {
	_, n := testNet()
	a := n.NewPort("a", nil)
	b := n.NewPort("b", nil)
	if a.Peer() != nil {
		t.Fatal("unconnected peer should be nil")
	}
	n.Connect(a, b, 1)
	if a.Peer() != b || b.Peer() != a {
		t.Fatal("peer wiring wrong")
	}
}

// --- switch tests ---

func TestSwitchCrossbarForwarding(t *testing.T) {
	k, n := testNet()
	sw := n.NewSwitch("sw", 3)
	var got []int
	mk := func(i int) *Port {
		p := n.NewPort("n", func(_ *Port, f Frame) { got = append(got, i) })
		n.Connect(p, sw.Port(i), 10)
		return p
	}
	p0 := mk(0)
	mk(1)
	mk(2)
	sw.SetRoute(0, 2)
	p0.Send(dataFrame(0, 2))
	k.Run()
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("crossbar delivered to %v, want [2]", got)
	}
	if sw.Forwarded != 1 {
		t.Fatalf("Forwarded = %d", sw.Forwarded)
	}
}

func TestSwitchUnroutedDropped(t *testing.T) {
	k, n := testNet()
	sw := n.NewSwitch("sw", 2)
	delivered := 0
	p0 := n.NewPort("n0", nil)
	p1 := n.NewPort("n1", func(_ *Port, f Frame) { delivered++ })
	n.Connect(p0, sw.Port(0), 10)
	n.Connect(p1, sw.Port(1), 10)
	p0.Send(dataFrame(0, 1))
	k.Run()
	if delivered != 0 {
		t.Fatal("unrouted frame forwarded")
	}
	if sw.Unrouted != 1 {
		t.Fatalf("Unrouted = %d", sw.Unrouted)
	}
}

func TestSwitchFloodsRostering(t *testing.T) {
	k, n := testNet()
	sw := n.NewSwitch("sw", 4)
	var got []int
	var ports []*Port
	for i := 0; i < 4; i++ {
		i := i
		p := n.NewPort("n", func(_ *Port, f Frame) { got = append(got, i) })
		n.Connect(p, sw.Port(i), 10)
		ports = append(ports, p)
	}
	rp := micropacket.NewRostering(0, 1, [8]byte{})
	ports[1].Send(newFrameV1(rp))
	k.Run()
	if len(got) != 3 {
		t.Fatalf("flooded to %v, want all but ingress", got)
	}
	for _, i := range got {
		if i == 1 {
			t.Fatal("flooded back to ingress")
		}
	}
}

func TestSwitchFloodSkipsDarkPorts(t *testing.T) {
	k, n := testNet()
	sw := n.NewSwitch("sw", 3)
	var got []int
	var links []*Link
	var ports []*Port
	for i := 0; i < 3; i++ {
		i := i
		p := n.NewPort("n", func(_ *Port, f Frame) { got = append(got, i) })
		links = append(links, n.Connect(p, sw.Port(i), 10))
		ports = append(ports, p)
	}
	links[2].Fail()
	ports[0].Send(newFrameV1(micropacket.NewRostering(0, 1, [8]byte{})))
	k.Run()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("flood reached %v, want [1]", got)
	}
}

func TestSwitchFail(t *testing.T) {
	k, n := testNet()
	sw := n.NewSwitch("sw", 2)
	delivered := 0
	p0 := n.NewPort("n0", nil)
	p1 := n.NewPort("n1", func(_ *Port, f Frame) { delivered++ })
	l0 := n.Connect(p0, sw.Port(0), 10)
	n.Connect(p1, sw.Port(1), 10)
	sw.SetRoute(0, 1)
	sw.Fail()
	if l0.Up() {
		t.Fatal("switch failure should darken attached links")
	}
	p0.Send(dataFrame(0, 1))
	k.Run()
	if delivered != 0 {
		t.Fatal("failed switch forwarded")
	}
	sw.Restore()
	if !l0.Up() {
		t.Fatal("restore should re-light links")
	}
	p0.Send(dataFrame(0, 1))
	k.Run()
	if delivered != 1 {
		t.Fatalf("delivered after restore = %d", delivered)
	}
}

// --- topology tests ---

func TestBuildClusterShape(t *testing.T) {
	k, n := testNet()
	c := BuildCluster(n, 6, 4, 50)
	if c.NumNodes() != 6 || c.NumSwitches() != 4 {
		t.Fatalf("shape %dx%d", c.NumNodes(), c.NumSwitches())
	}
	for i := 0; i < 6; i++ {
		for s := 0; s < 4; s++ {
			if !c.NodeLinks[i][s].Up() {
				t.Fatalf("link n%d-s%d down at build", i, s)
			}
		}
	}
	k.Run()
}

func TestLiveSwitchesBetween(t *testing.T) {
	_, n := testNet()
	c := BuildCluster(n, 4, 4, 50)
	if got := c.LiveSwitchesBetween(0, 1); len(got) != 4 {
		t.Fatalf("all-up candidates = %v", got)
	}
	c.NodeLinks[0][0].Fail()
	if got := c.LiveSwitchesBetween(0, 1); len(got) != 3 {
		t.Fatalf("after one link fail = %v", got)
	}
	c.Switches[1].Fail()
	if got := c.LiveSwitchesBetween(0, 1); len(got) != 2 {
		t.Fatalf("after switch fail = %v", got)
	}
	c.NodeLinks[1][2].Fail()
	c.NodeLinks[0][3].Fail()
	if got := c.LiveSwitchesBetween(0, 1); got != nil {
		t.Fatalf("no common switch expected, got %v", got)
	}
}

func TestFailRestoreNode(t *testing.T) {
	_, n := testNet()
	c := BuildCluster(n, 3, 2, 50)
	c.FailNode(1)
	for s := 0; s < 2; s++ {
		if c.NodeLinks[1][s].Up() {
			t.Fatal("node link up after FailNode")
		}
	}
	c.RestoreNode(1)
	for s := 0; s < 2; s++ {
		if !c.NodeLinks[1][s].Up() {
			t.Fatal("node link down after RestoreNode")
		}
	}
}
