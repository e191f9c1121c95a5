package phys

import (
	"testing"

	"repro/internal/frameacct"
	"repro/internal/micropacket"
	"repro/internal/sim"
)

// TestSendPriorityJumpsQueue: priority frames overtake queued data but
// not the frame already being serialized.
func TestSendPriorityJumpsQueue(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNet(k)
	var order []uint8
	a := n.NewPort("a", nil)
	b := n.NewPort("b", func(_ *Port, f Frame) { order = append(order, f.Pkt.Tag) })
	n.Connect(a, b, 10)
	for i := 0; i < 4; i++ {
		a.Send(newFrameV1(micropacket.NewData(1, 2, uint8(i), nil)))
	}
	a.SendPriority(newFrameV1(micropacket.NewRostering(1, 99, [8]byte{})))
	k.Run()
	if len(order) != 5 {
		t.Fatalf("delivered %d", len(order))
	}
	// Frame 0 was mid-serialization; the rostering frame (tag 0 in a
	// Rostering packet — identify by position) must be second.
	if order[0] != 0 {
		t.Fatalf("in-flight frame displaced: %v", order)
	}
	// order[1] is the priority frame (its Tag is 99).
	if order[1] != 99 {
		t.Fatalf("priority frame did not jump the queue: %v", order)
	}
	if order[2] != 1 || order[3] != 2 || order[4] != 3 {
		t.Fatalf("data order disturbed: %v", order)
	}
}

// TestSendPriorityBypassesCapacity: a full FIFO refuses data but still
// accepts rostering traffic.
func TestSendPriorityBypassesCapacity(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNet(k)
	a := n.NewPort("a", nil)
	b := n.NewPort("b", nil)
	n.Connect(a, b, 10)
	a.SetCapacity(2)
	a.Send(newFrameV1(micropacket.NewData(1, 2, 0, nil)))
	a.Send(newFrameV1(micropacket.NewData(1, 2, 1, nil)))
	if a.Send(newFrameV1(micropacket.NewData(1, 2, 2, nil))) {
		t.Fatal("over-capacity data accepted")
	}
	if !a.SendPriority(newFrameV1(micropacket.NewRostering(1, 0, [8]byte{}))) {
		t.Fatal("priority frame refused by full FIFO")
	}
	k.Run()
}

// TestSendPriorityOnDarkLink: loss counted, send refused.
func TestSendPriorityOnDarkLink(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNet(k)
	a := n.NewPort("a", nil)
	b := n.NewPort("b", nil)
	l := n.Connect(a, b, 10)
	l.Fail()
	if a.SendPriority(newFrameV1(micropacket.NewRostering(1, 0, [8]byte{}))) {
		t.Fatal("priority send on dark link accepted")
	}
	if l := n.Acct.Losses[frameacct.LossDarkPort]; l != 1 {
		t.Fatalf("lost = %d", l)
	}
	k.Run()
}

// TestTwoPriorityFramesKeepOrder: successive priority frames stay FIFO
// among themselves.
func TestTwoPriorityFramesKeepOrder(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNet(k)
	var order []uint8
	a := n.NewPort("a", nil)
	b := n.NewPort("b", func(_ *Port, f Frame) { order = append(order, f.Pkt.Tag) })
	n.Connect(a, b, 10)
	a.Send(newFrameV1(micropacket.NewData(1, 2, 0, nil)))
	a.Send(newFrameV1(micropacket.NewData(1, 2, 1, nil)))
	a.SendPriority(newFrameV1(micropacket.NewRostering(1, 10, [8]byte{})))
	a.SendPriority(newFrameV1(micropacket.NewRostering(1, 11, [8]byte{})))
	k.Run()
	want := []uint8{0, 10, 11, 1}
	if len(order) != 4 {
		t.Fatalf("delivered %d", len(order))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
