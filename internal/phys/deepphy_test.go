package phys

import (
	"bytes"
	"testing"

	"repro/internal/enc8b10b"
	"repro/internal/frameacct"
	"repro/internal/micropacket"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TestDeepPHYCleanDelivery: with the full hardware datapath enabled,
// every frame survives encode→8b/10b→decode bit-exactly.
func TestDeepPHYCleanDelivery(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNet(k)
	n.DeepPHY = true
	var got []*micropacket.Packet
	a := n.NewPort("a", nil)
	b := n.NewPort("b", func(_ *Port, f Frame) { got = append(got, f.Pkt) })
	n.Connect(a, b, 100)

	sent := []*micropacket.Packet{
		micropacket.NewData(1, 2, 7, []byte{0xDE, 0xAD, 0xBE, 0xEF}),
		micropacket.NewDMA(1, 2, micropacket.DMAHeader{Channel: 5, Region: 3, Offset: 4096}, bytes.Repeat([]byte{0x5A}, 64)),
		micropacket.NewAtomic(1, 2, 9, micropacket.OpFetchAdd, 0x123456789ABCDEF0),
		micropacket.NewRostering(1, 0, [8]byte{1, 2, 3, 4, 5, 6, 7, 8}),
	}
	for _, p := range sent {
		if !a.Send(newFrameV1(p)) {
			t.Fatal("send refused")
		}
	}
	k.Run()
	if len(got) != len(sent) {
		t.Fatalf("delivered %d of %d", len(got), len(sent))
	}
	for i, p := range sent {
		q := got[i]
		if q.Type != p.Type || q.Src != p.Src || q.Dst != p.Dst || q.Tag != p.Tag ||
			q.Payload != p.Payload || !bytes.Equal(q.Data, p.Data) || q.DMA != p.DMA {
			t.Fatalf("frame %d mutated through deep PHY:\n  sent %v\n  got  %v", i, p, q)
		}
	}
	if d := n.Acct.Losses[frameacct.LossCRC]; d != 0 {
		t.Fatalf("CRC drops on clean link: %d", d)
	}
}

// TestDeepPHYCorruptionDiscarded: single bit flips anywhere in the
// symbol stream must never deliver a corrupted frame — the hardware
// discards on code violation or CRC mismatch.
func TestDeepPHYCorruptionDiscarded(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	ref := micropacket.NewData(1, 2, 7, payload)
	syms, _ := wire.EncodeSymbols(wire.MustForVersion(wire.V1), ref, enc8b10b.NewEncoder())
	nSyms := len(syms)

	delivered, dropped := 0, 0
	for symIdx := 0; symIdx < nSyms; symIdx++ {
		for bit := 0; bit < 10; bit++ {
			k := sim.NewKernel(1)
			n := NewNet(k)
			n.DeepPHY = true
			si, bi := symIdx, bit
			n.Corrupt = func(_ Frame, s []enc8b10b.Symbol) {
				s[si] ^= 1 << bi
			}
			ok := true
			a := n.NewPort("a", nil)
			b := n.NewPort("b", func(_ *Port, f Frame) {
				delivered++
				// If it got through despite the flip, it must be
				// bit-identical (the flip hit redundancy, e.g. got
				// corrected... 8b/10b does not correct, so this
				// should not happen for payload bits).
				if f.Pkt.Payload != ref.Payload || f.Pkt.Tag != ref.Tag ||
					f.Pkt.Src != ref.Src || f.Pkt.Dst != ref.Dst {
					ok = false
				}
			})
			n.Connect(a, b, 10)
			a.Send(newFrameV1(micropacket.NewData(1, 2, 7, payload)))
			k.Run()
			if !ok {
				t.Fatalf("corrupted frame DELIVERED with wrong contents (sym %d bit %d)", si, bi)
			}
			dropped += int(n.Acct.Losses[frameacct.LossCRC])
		}
	}
	if delivered != 0 {
		// Strictly, a flip could in principle cancel out; with this
		// codec and CRC it must not for single-bit flips.
		t.Fatalf("%d corrupted frames delivered (want 0), %d dropped", delivered, dropped)
	}
	if dropped != nSyms*10 {
		t.Fatalf("dropped %d of %d corrupted frames", dropped, nSyms*10)
	}
}

// TestDeepPHYBurstErrors: multi-bit bursts are likewise discarded.
func TestDeepPHYBurstErrors(t *testing.T) {
	k := sim.NewKernel(7)
	n := NewNet(k)
	n.DeepPHY = true
	rng := sim.NewRNG(3)
	frames := 0
	n.Corrupt = func(_ Frame, s []enc8b10b.Symbol) {
		frames++
		if frames%3 != 0 {
			return // corrupt every third frame
		}
		start := rng.Intn(len(s))
		for j := 0; j < 3 && start+j < len(s); j++ {
			s[start+j] ^= enc8b10b.Symbol(rng.Intn(1024))
		}
	}
	delivered := 0
	a := n.NewPort("a", nil)
	b := n.NewPort("b", func(_ *Port, f Frame) { delivered++ })
	n.Connect(a, b, 10)
	const total = 300
	sendNext := func() {}
	i := 0
	sendNext = func() {
		if i < total {
			a.Send(newFrameV1(micropacket.NewData(1, 2, uint8(i), []byte{byte(i)})))
			i++
			k.After(SerTime(40), sendNext)
		}
	}
	k.After(0, sendNext)
	k.Run()
	// XORing with a random value can leave a symbol unchanged (1/1024),
	// so allow a tiny tolerance above the exact 2/3.
	if delivered < 200 || delivered > 205 {
		t.Fatalf("delivered %d of %d; expected ≈200 (every third corrupted)", delivered, total)
	}
	if d := n.Acct.Losses[frameacct.LossCRC]; d < 95 {
		t.Fatalf("CRC drops = %d, want ≈100", d)
	}
}

// TestDeepPHYEndToEndStack: the full node stack (kernel, cache,
// services) runs unchanged over the deep datapath.
func TestDeepPHYHopPreserved(t *testing.T) {
	k := sim.NewKernel(1)
	n := NewNet(k)
	n.DeepPHY = true
	var gotHops uint16
	a := n.NewPort("a", nil)
	b := n.NewPort("b", func(_ *Port, f Frame) { gotHops = f.Hops })
	n.Connect(a, b, 10)
	f := newFrameV1(micropacket.NewData(1, 2, 0, nil))
	f.Hops = 9
	a.Send(f)
	k.Run()
	if gotHops != 9 {
		t.Fatalf("hop count lost through deep PHY: %d", gotHops)
	}
}
