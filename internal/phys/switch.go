package phys

import (
	"encoding/binary"
	"fmt"

	"repro/internal/frameacct"
	"repro/internal/micropacket"
	"repro/internal/sim"
)

// Switch models one AmpNet switch (slides 14–15). AmpNet switches are
// circuit-style forwarders: the rostering algorithm programs a crossbar
// (ingress port → egress port) that realizes the node-to-node hops of
// the current logical ring, so data MicroPackets cut through with a
// fixed forwarding latency. Rostering MicroPackets are instead flooded
// to every live port except the ingress — that is what lets the
// "modified flooding algorithm" (slide 16) explore all available paths.
//
// Ports come in two kinds. The first nodePorts ports face nodes (port n
// belongs to node n, part of the ubiquitous configuration database —
// slide 2); any further ports are inter-switch trunk ends. A frame
// entering a node port is stamped with that port index as its virtual
// circuit id (the hop's source node), so a frame arriving over a trunk
// can be routed by its VC tag — several ring hops may share one trunk
// without crossbar conflicts, each on its own circuit.
//
// In node-only topologies rostering floods cannot loop inside the
// switch layer; with trunks a flood could circulate around a switch
// cycle, so switches expire flood frames after MaxFloodHops crossings
// (nodes additionally deduplicate by announcement sequence before
// re-flooding).
type Switch struct {
	Name      string
	net       *Net
	ports     []*Port
	nodePorts int
	xbar      []int32        // node-port ingress → egress port index, -1 unrouted
	vcRoutes  map[uint32]int // trunk ingress<<16|vc → egress port index
	latency   sim.Time
	failed    bool

	// Forwarded counts crossbar forwards for diagnostics.
	Forwarded uint64
	// Unrouted counts packets that arrived with no crossbar or VC entry.
	Unrouted uint64
	// FloodExpired counts rostering floods dropped at the hop limit.
	FloodExpired uint64
	// FloodDeduped counts rostering floods dropped as already-seen
	// waves.
	FloodDeduped uint64

	// Flood deduplication state: announcements seen in the current
	// highest rostering epoch. Without it a trunked switch cycle
	// multiplies every flood exponentially.
	floodEpoch uint32
	floodSeen  map[uint64]bool
}

// DefaultSwitchLatency is the cut-through forwarding latency.
const DefaultSwitchLatency = 200 * sim.Nanosecond

// MaxFloodHops bounds how many switch crossings a rostering flood frame
// may make; it terminates floods circulating a trunk cycle.
const MaxFloodHops = 32

// NewSwitch creates a switch with nPorts unconnected node-facing ports.
func (n *Net) NewSwitch(name string, nPorts int) *Switch {
	s := &Switch{
		Name: name, net: n, nodePorts: nPorts,
		xbar: newXbar(nPorts), vcRoutes: map[uint32]int{},
		latency: DefaultSwitchLatency,
	}
	for i := 0; i < nPorts; i++ {
		s.addPort(fmt.Sprintf("%s.p%d", name, i))
	}
	return s
}

func (s *Switch) addPort(name string) (*Port, int) {
	idx := len(s.ports)
	p := s.net.NewPort(name, nil)
	p.SetHandler(func(_ *Port, f Frame) { s.receive(idx, f) })
	s.ports = append(s.ports, p)
	return p, idx
}

// addTrunkPort appends a trunk end beyond the node-facing ports.
func (s *Switch) addTrunkPort(tag string) (*Port, int) {
	return s.addPort(fmt.Sprintf("%s.%s", s.Name, tag))
}

// Port returns the i-th switch port (node ports first, then trunks).
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// NumPorts returns the total port count (node ports plus trunk ends).
func (s *Switch) NumPorts() int { return len(s.ports) }

// NumNodePorts returns the node-facing port count.
func (s *Switch) NumNodePorts() int { return s.nodePorts }

// SetLatency overrides the cut-through latency.
func (s *Switch) SetLatency(d sim.Time) { s.latency = d }

// newXbar builds an all-unrouted crossbar for n ingress ports. The
// crossbar is a dense slice, not a map: data forwarding hits it once
// per frame per switch, and an indexed load beats a map probe on that
// path by an order of magnitude.
func newXbar(n int) []int32 {
	x := make([]int32, n)
	for i := range x {
		x[i] = -1
	}
	return x
}

// SetRoute programs the crossbar: frames entering node port in exit at
// port out (a node port or a trunk end). Pass out < 0 to clear the
// route.
func (s *Switch) SetRoute(in, out int) {
	for in >= len(s.xbar) {
		s.xbar = append(s.xbar, -1)
	}
	if out < 0 {
		s.xbar[in] = -1
		return
	}
	s.xbar[in] = int32(out)
}

// SetVCRoute programs trunk forwarding: frames arriving on trunk port
// in with virtual-circuit tag vc exit at port out. The circuit tag is
// a node id, so it is as wide as the address space. Pass out < 0 to
// clear the entry.
func (s *Switch) SetVCRoute(in int, vc uint16, out int) {
	key := uint32(in)<<16 | uint32(vc)
	if out < 0 {
		delete(s.vcRoutes, key)
		return
	}
	s.vcRoutes[key] = out
}

// ClearRoutes empties the crossbar and the trunk VC table (done at the
// start of rostering).
func (s *Switch) ClearRoutes() {
	for i := range s.xbar {
		s.xbar[i] = -1
	}
	s.vcRoutes = map[uint32]int{}
}

// Failed reports whether the switch has been failed.
func (s *Switch) Failed() bool { return s.failed }

// Fail takes the whole switch down: every attached link — node fibers
// and trunk ends alike — goes dark.
func (s *Switch) Fail() {
	if s.failed {
		return
	}
	s.failed = true
	for _, p := range s.ports {
		if p.link != nil {
			p.link.Fail()
		}
	}
}

// Restore brings the switch back; attached links re-light.
func (s *Switch) Restore() {
	if !s.failed {
		return
	}
	s.failed = false
	for _, p := range s.ports {
		if p.link != nil {
			p.link.Restore()
		}
	}
}

// floodAdmit decides whether a rostering flood frame is a new wave.
// Switches, like nodes, deduplicate floods by wave identifier (slide
// 16's "modified flooding algorithm"): the announcement's epoch,
// origin and sequence, read from the rostering payload layout defined
// in internal/rostering (origin little-endian at bytes 0..1, epoch
// little-endian at bytes 3..6, sequence at byte 7). Announcements of
// a newer epoch reset the seen set; stale epochs are dropped outright
// — every agent of a superseded round has already moved on. In
// node-only topologies floods cannot revisit a switch, so this logic
// only matters once trunks create switch-layer cycles, where
// re-flooding duplicates would multiply exponentially.
func (s *Switch) floodAdmit(f Frame) bool {
	pl := f.Pkt.Payload
	epoch := binary.LittleEndian.Uint32(pl[3:7])
	switch {
	case epoch > s.floodEpoch:
		s.floodEpoch = epoch
		s.floodSeen = map[uint64]bool{}
	case epoch < s.floodEpoch:
		return false
	}
	origin := uint64(binary.LittleEndian.Uint16(pl[0:2]))
	seq := uint64(pl[7])
	key := origin<<8 | seq
	if s.floodSeen == nil {
		s.floodSeen = map[uint64]bool{}
	}
	if s.floodSeen[key] {
		return false
	}
	s.floodSeen[key] = true
	return true
}

// receiveFlood handles a rostering flood frame arriving on port index
// in: hop-expire, wave-dedup, then flood to every other live port
// after the cut-through delay. Floods are a rostering-transition
// burst, not the data hot path; the closure is fine, but Do skips the
// Timer.
func (s *Switch) receiveFlood(in int, f Frame) {
	if f.Hops >= MaxFloodHops {
		s.FloodExpired++
		s.net.Acct.Lose(frameacct.LossFloodExpired)
		return
	}
	if !s.floodAdmit(f) {
		s.FloodDeduped++
		s.net.Acct.Lose(frameacct.LossFloodDeduped)
		return
	}
	f.Hops++
	s.net.Acct.Enter()
	s.net.K.Do(s.net.K.Now()+s.latency, func() {
		s.net.Acct.Exit()
		if s.failed {
			s.net.Acct.Lose(frameacct.LossSwitchDead)
			return
		}
		// The fan-out stage absorbs the arriving wave; every copy it
		// emits is a fresh origin with its own ledger life (zero live
		// egress ports simply means zero offspring).
		s.net.Acct.Consume(frameacct.ConsumeFloodFanout)
		for i, p := range s.ports {
			if i == in || !p.Up() {
				continue
			}
			p.SendPriority(f)
		}
	})
}

// receive handles a frame arriving on port index in.
func (s *Switch) receive(in int, f Frame) {
	if s.failed {
		s.net.Acct.Lose(frameacct.LossSwitchDead)
		return
	}
	if f.Pkt.Type == micropacket.TypeRostering {
		// Kept out of line: the flood closure captures f, and a
		// captured parameter heap-escapes at function entry on every
		// call — including the data-path calls that never flood.
		s.receiveFlood(in, f)
		return
	}
	var out int
	if in < s.nodePorts {
		// Node ingress: stamp the hop's virtual circuit (the source
		// node's id) and consult the crossbar.
		f.VC = uint16(in)
		if in >= len(s.xbar) || s.xbar[in] < 0 {
			s.Unrouted++
			s.net.Acct.Lose(frameacct.LossUnroutedXbar)
			return
		}
		out = int(s.xbar[in])
	} else {
		o, ok := s.vcRoutes[uint32(in)<<16|uint32(f.VC)]
		if !ok {
			s.Unrouted++
			s.net.Acct.Lose(frameacct.LossUnroutedVC)
			return
		}
		out = o
	}
	// Cut-through forward after the switch latency, via a pooled
	// record (the per-frame closure + Timer here used to be one of the
	// hottest allocation sites in the simulator).
	s.net.Acct.Enter()
	w := s.net.newSwForward(s, out, f)
	s.net.K.Do(s.net.K.Now()+s.latency, w.run)
}
