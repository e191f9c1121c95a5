package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/frameacct"
	"repro/internal/micropacket"
	"repro/internal/netcache"
	"repro/internal/phys"
	"repro/internal/sim"
)

// TestDeepPHYFullStack boots an entire cluster with every frame passing
// through the real MicroPacket + 8b/10b datapath bit-for-bit.
func TestDeepPHYFullStack(t *testing.T) {
	c := New(Options{Nodes: 4, Switches: 2, DeepPHY: true, Regions: map[uint8]int{1: 4096}})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	// Messaging.
	var got []byte
	c.Services[3].Sub.Subscribe(1, func(_ micropacket.NodeID, data []byte) { got = data })
	c.Services[0].Sub.Publish(1, []byte("through the real datapath"))
	c.Run(3 * sim.Millisecond)
	if string(got) != "through the real datapath" {
		t.Fatalf("pubsub over deep PHY: %q", got)
	}
	// Cache.
	rec := netcache.Record{Region: 1, Off: 0, Size: 32}
	want := bytes.Repeat([]byte{0x3C}, 32)
	c.Nodes[1].CacheW.WriteRecord(rec, want)
	c.Run(3 * sim.Millisecond)
	if d, ok := c.Nodes[2].Cache.TryRead(rec); !ok || !bytes.Equal(d, want) {
		t.Fatal("cache over deep PHY failed")
	}
	// Self-heal still works with the full datapath.
	c.FailSwitch(0)
	c.Run(10 * sim.Millisecond)
	if c.RingSize() != 4 {
		t.Fatalf("heal over deep PHY: ring = %d", c.RingSize())
	}
	if d := c.FrameAcct().Losses[frameacct.LossCRC]; d != 0 {
		t.Fatalf("CRC drops on clean links: %d", d)
	}
	if c.Drops() != 0 {
		t.Fatalf("congestion drops: %d", c.Drops())
	}
}

// TestDeepPHYWithBitErrors injects a 1e-4 per-symbol error rate: frames
// are discarded by the hardware CRC (never delivered corrupted) and the
// services above survive via retransmission and recovery.
func TestDeepPHYWithBitErrors(t *testing.T) {
	c := New(Options{Nodes: 3, Switches: 2, DeepPHY: true, BER: 1e-4, Regions: map[uint8]int{1: 2048}})
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	for _, nd := range c.Nodes {
		nd.EnableAutoRecovery(2 * sim.Millisecond)
	}
	// Stream cache writes; the final state must converge everywhere
	// despite frames dying to bit errors along the way.
	rec := netcache.Record{Region: 1, Off: 0, Size: 16}
	i := byte(0)
	var tick func()
	tick = func() {
		i++
		c.Nodes[0].CacheW.WriteRecord(rec, bytes.Repeat([]byte{i}, 16))
		if i < 100 {
			c.K.After(50*sim.Microsecond, tick)
		}
	}
	c.K.After(0, tick)
	c.Run(80 * sim.Millisecond)

	crc := c.FrameAcct().Losses[frameacct.LossCRC]
	if crc == 0 {
		t.Skip("no frame hit a bit error at this BER/seed; nothing exercised")
	}
	want := bytes.Repeat([]byte{100}, 16)
	for id, nd := range c.Nodes {
		got, ok := nd.Cache.TryRead(rec)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("node %d did not converge under bit errors (CRC drops=%d): %v ok=%v",
				id, crc, got[:2], ok)
		}
	}
}

// TestBERValidation pins Options.BER's one validation path on both
// engines: a BER outside [0, 1], or a nonzero BER without DeepPHY (which
// would be silently ignored), makes Scenario.Run fail with an error
// naming Options.BER, and New panic with the same text.
func TestBERValidation(t *testing.T) {
	topo := phys.Sharded(2, 3, 1, 50)
	cases := []struct {
		name string
		opts Options
	}{
		{"serial-no-deepphy", Options{Nodes: 4, Switches: 2, BER: 0.5}},
		{"serial-negative", Options{Nodes: 4, Switches: 2, DeepPHY: true, BER: -1}},
		{"serial-above-one", Options{Nodes: 4, Switches: 2, DeepPHY: true, BER: 1.5}},
		{"serial-nan", Options{Nodes: 4, Switches: 2, DeepPHY: true, BER: math.NaN()}},
		{"sharded-no-deepphy", Options{Fabric: &topo, Shards: 2, BER: 0.5}},
		{"sharded-negative", Options{Fabric: &topo, Shards: 2, DeepPHY: true, BER: -1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Scenario{Opts: c.opts, For: sim.Millisecond}.Run()
			if err == nil {
				t.Fatal("Scenario.Run accepted the bad BER")
			}
			if !strings.Contains(err.Error(), "Options.BER") {
				t.Fatalf("error %q does not name Options.BER", err)
			}
			if panicked := newPanic(c.opts); panicked != err.Error() {
				t.Fatalf("New panicked with %q, want Scenario.Run's %q", panicked, err)
			}
		})
	}
}
