package ampdc

import (
	"bytes"
	"testing"

	"repro/internal/ampdk"
	"repro/internal/frameacct"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
)

type rig struct {
	k     *sim.Kernel
	net   *phys.Net
	nodes []*ampdk.Node
	svcs  []*Services
}

func newRig(t *testing.T, n int) *rig {
	t.Helper()
	k := sim.NewKernel(1)
	net := phys.NewNet(k)
	c := phys.BuildCluster(net, n, 2, 50)
	r := &rig{k: k, net: net}
	for i := 0; i < n; i++ {
		nd := ampdk.NewNode(k, c, ampdk.Config{ID: i})
		r.nodes = append(r.nodes, nd)
		r.svcs = append(r.svcs, New(nd))
	}
	for _, nd := range r.nodes {
		nd := nd
		k.After(0, func() { nd.Boot() })
	}
	r.run(20 * sim.Millisecond)
	for i, nd := range r.nodes {
		if !nd.Online() {
			t.Fatalf("node %d offline", i)
		}
	}
	return r
}

func (r *rig) run(d sim.Time) { r.k.RunUntil(r.k.Now() + d) }

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + 5)
	}
	return b
}

// --- AmpSubscribe ---

func TestPubSubSmallMessage(t *testing.T) {
	r := newRig(t, 3)
	var got [][]byte
	var from []micropacket.NodeID
	r.svcs[2].Sub.Subscribe(7, func(src micropacket.NodeID, data []byte) {
		got = append(got, data)
		from = append(from, src)
	})
	r.k.After(0, func() { r.svcs[0].Sub.Publish(7, []byte("hello")) })
	r.run(5 * sim.Millisecond)
	if len(got) != 1 || string(got[0]) != "hello" || from[0] != 0 {
		t.Fatalf("got %q from %v", got, from)
	}
}

func TestPubSubLargeMessageReassembled(t *testing.T) {
	r := newRig(t, 2)
	big := pattern(1000) // 16 segments
	var got []byte
	r.svcs[1].Sub.Subscribe(1, func(_ micropacket.NodeID, data []byte) { got = data })
	r.k.After(0, func() { r.svcs[0].Sub.Publish(1, big) })
	r.run(10 * sim.Millisecond)
	if !bytes.Equal(got, big) {
		t.Fatalf("reassembly failed: %d bytes", len(got))
	}
}

func TestPubSubLocalLoopback(t *testing.T) {
	r := newRig(t, 2)
	localGot := 0
	r.svcs[0].Sub.Subscribe(3, func(_ micropacket.NodeID, _ []byte) { localGot++ })
	r.k.After(0, func() { r.svcs[0].Sub.Publish(3, []byte("x")) })
	r.run(5 * sim.Millisecond)
	if localGot != 1 {
		t.Fatalf("local deliveries = %d", localGot)
	}
}

func TestPubSubTopicsIsolated(t *testing.T) {
	r := newRig(t, 2)
	var topicA, topicB int
	r.svcs[1].Sub.Subscribe(10, func(_ micropacket.NodeID, _ []byte) { topicA++ })
	r.svcs[1].Sub.Subscribe(11, func(_ micropacket.NodeID, _ []byte) { topicB++ })
	r.k.After(0, func() {
		r.svcs[0].Sub.Publish(10, []byte("a"))
		r.svcs[0].Sub.Publish(10, []byte("a"))
		r.svcs[0].Sub.Publish(11, []byte("b"))
	})
	r.run(5 * sim.Millisecond)
	if topicA != 2 || topicB != 1 {
		t.Fatalf("topicA=%d topicB=%d", topicA, topicB)
	}
}

func TestPubSubManyToMany(t *testing.T) {
	const n = 4
	r := newRig(t, n)
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		i := i
		r.svcs[i].Sub.Subscribe(1, func(_ micropacket.NodeID, _ []byte) { counts[i]++ })
	}
	r.k.After(0, func() {
		for i := 0; i < n; i++ {
			r.svcs[i].Sub.Publish(1, pattern(100))
		}
	})
	r.run(10 * sim.Millisecond)
	for i, c := range counts {
		if c != n {
			t.Fatalf("node %d received %d, want %d", i, c, n)
		}
	}
}

// --- AmpFiles ---

func TestFileTransfer(t *testing.T) {
	r := newRig(t, 3)
	content := pattern(5000)
	var gotName string
	var gotData []byte
	gotOK := false
	r.svcs[2].Files.OnFile = func(src micropacket.NodeID, name string, data []byte, ok bool) {
		gotName, gotData, gotOK = name, data, ok
	}
	r.k.After(0, func() {
		if err := r.svcs[0].Files.Send(2, "results.dat", content, nil); err != nil {
			t.Error(err)
		}
	})
	r.run(20 * sim.Millisecond)
	if !gotOK {
		t.Fatal("file corrupt or missing")
	}
	if gotName != "results.dat" || !bytes.Equal(gotData, content) {
		t.Fatalf("file mismatch: %q %d bytes", gotName, len(gotData))
	}
}

func TestFileEmptyAndNameEdge(t *testing.T) {
	r := newRig(t, 2)
	ok := false
	r.svcs[1].Files.OnFile = func(_ micropacket.NodeID, name string, data []byte, good bool) {
		ok = good && name == "" && len(data) == 0
	}
	r.k.After(0, func() { r.svcs[0].Files.Send(1, "", nil, nil) })
	r.run(10 * sim.Millisecond)
	if !ok {
		t.Fatal("empty file transfer failed")
	}
}

func TestFileNameTooLong(t *testing.T) {
	r := newRig(t, 2)
	if err := r.svcs[0].Files.Send(1, string(make([]byte, 300)), nil, nil); err == nil {
		t.Fatal("oversized name accepted")
	}
}

func TestFileCorruptionDetected(t *testing.T) {
	r := newRig(t, 2)
	// Deliver a frame with a bad CRC directly.
	var ok = true
	r.svcs[1].Files.OnFile = func(_ micropacket.NodeID, _ string, _ []byte, good bool) { ok = good }
	frame := []byte{filesMagic, 1, 'x', 4, 0, 0, 0, 0xBA, 0xD0, 0xBA, 0xD0, 1, 2, 3, 4}
	r.svcs[1].Files.handleDMA(0, micropacket.DMAHeader{}, frame, true)
	if ok {
		t.Fatal("CRC corruption not detected")
	}
	if r.svcs[1].Files.Corrupt != 1 {
		t.Fatal("corrupt counter")
	}
}

func TestParseFileFraming(t *testing.T) {
	if _, _, ok := parseFile(nil); ok {
		t.Fatal("nil parsed")
	}
	if _, _, ok := parseFile([]byte{1, 2, 3}); ok {
		t.Fatal("short parsed")
	}
	if _, _, ok := parseFile(append([]byte{filesMagic, 200}, make([]byte, 20)...)); ok {
		t.Fatal("bad namelen parsed")
	}
}

// TestSlide7FilesAndMessagesConcurrently: a file stream and a pub/sub
// message stream share the segment; both make progress (slide 7).
func TestSlide7FilesAndMessagesConcurrently(t *testing.T) {
	r := newRig(t, 4)
	fileDone := false
	msgs := 0
	r.svcs[1].Files.OnFile = func(_ micropacket.NodeID, _ string, _ []byte, ok bool) { fileDone = ok }
	r.svcs[3].Sub.Subscribe(5, func(_ micropacket.NodeID, _ []byte) { msgs++ })
	var fileAt sim.Time
	r.svcs[1].Files.OnFile = func(_ micropacket.NodeID, _ string, _ []byte, ok bool) {
		fileDone = ok
		fileAt = r.k.Now()
	}
	r.k.After(0, func() {
		r.svcs[0].Files.Send(1, "big.bin", pattern(40*1024), nil)
		var tick func()
		n := 0
		tick = func() {
			if n < 50 {
				r.svcs[2].Sub.Publish(5, pattern(64))
				n++
				r.k.After(20*sim.Microsecond, tick)
			}
		}
		tick()
	})
	r.run(100 * sim.Millisecond)
	if !fileDone {
		t.Fatal("file did not complete")
	}
	if msgs != 50 {
		t.Fatalf("messages delivered = %d, want 50", msgs)
	}
	if fileAt == 0 {
		t.Fatal("no file completion time")
	}
	if d := r.net.Acct.Losses[frameacct.LossFifoFull]; d != 0 {
		t.Fatalf("drops = %d", d)
	}
}

// --- AmpThreads ---

func TestRemoteCall(t *testing.T) {
	r := newRig(t, 2)
	r.svcs[1].Threads.Register(1, func(arg uint32) uint32 { return arg * 2 })
	var res uint32
	okCall := false
	r.k.After(0, func() {
		r.svcs[0].Threads.Call(1, 1, 21, func(v uint32, ok bool) { res, okCall = v, ok })
	})
	r.run(5 * sim.Millisecond)
	if !okCall || res != 42 {
		t.Fatalf("call = %d ok=%v", res, okCall)
	}
	if r.svcs[1].Threads.Served != 1 {
		t.Fatal("served counter")
	}
}

func TestRemoteCallUnknownFunction(t *testing.T) {
	r := newRig(t, 2)
	okCall := true
	r.k.After(0, func() {
		r.svcs[0].Threads.Call(1, 99, 0, func(_ uint32, ok bool) { okCall = ok })
	})
	r.run(5 * sim.Millisecond)
	if okCall {
		t.Fatal("unknown function reported ok")
	}
}

func TestManyOutstandingCalls(t *testing.T) {
	r := newRig(t, 3)
	r.svcs[2].Threads.Register(1, func(arg uint32) uint32 { return arg + 1 })
	results := map[uint32]uint32{}
	r.k.After(0, func() {
		for i := uint32(0); i < 50; i++ {
			i := i
			r.svcs[0].Threads.Call(2, 1, i, func(v uint32, ok bool) {
				if ok {
					results[i] = v
				}
			})
		}
	})
	r.run(20 * sim.Millisecond)
	if len(results) != 50 {
		t.Fatalf("resolved %d/50 calls", len(results))
	}
	for i, v := range results {
		if v != i+1 {
			t.Fatalf("call %d = %d", i, v)
		}
	}
}

func TestUnclaimedMessagesPassThrough(t *testing.T) {
	r := newRig(t, 2)
	var got uint8
	r.svcs[1].OnMessage = func(_ micropacket.NodeID, tag uint8, _ [8]byte) { got = tag }
	r.k.After(0, func() { r.nodes[0].SendMessage(1, ampdk.TagApp+9, []byte{1}) })
	r.run(5 * sim.Millisecond)
	if got != ampdk.TagApp+9 {
		t.Fatalf("pass-through tag = %d", got)
	}
}
