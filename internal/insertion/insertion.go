// Package insertion implements AmpNet's MAC layer: a variant of a
// register insertion ring (paper, slide 8).
//
// Each node (Station) sits on the current logical ring with one ingress
// and one egress hop. Ring traffic passing through the node has absolute
// priority; the node may insert its own MicroPackets only when its
// egress path is sufficiently idle (the insertion register rule), and it
// adapts its contribution to the total flow by watching its local view
// of the ring — the occupancy of its own transit path — exactly as
// slide 8 describes:
//
//	"Each node monitors its local view of the network and can increase
//	 or decrease its contribution to the total flow accordingly. Even if
//	 everyone does a broadcast at the same time (all-to-all broadcast)
//	 the network is guaranteed to not drop packets."
//
// The losslessness guarantee holds because (a) transit traffic is never
// displaced by insertion, (b) insertion requires the egress queue to be
// at or below InsertThreshold, and (c) a ring node has exactly one
// upstream link, so transit arrivals can never exceed the line rate that
// the egress serializes at. The experiments assert the Net ledger's
// fifo_full loss count (phys.Net.Acct) stays 0 under saturating
// all-to-all broadcast (experiment E4).
//
// Stripping rules: the destination strips unicast MicroPackets (allowing
// spatial reuse — slide 7's multiple simultaneous streams); the source
// strips its own broadcasts after a full tour.
package insertion

import (
	"repro/internal/frameacct"
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
)

// Defaults for station tuning.
const (
	// DefaultForwardDelay models the insertion-register latency of the
	// transit path (about four byte times).
	DefaultForwardDelay = 40 * sim.Nanosecond
	// DefaultInsertThreshold: insert only when the egress FIFO is empty.
	DefaultInsertThreshold = 0
	// DefaultInsertQueue is the host-side insertion queue depth; a full
	// queue pushes back on the host (Refused), never onto the wire.
	DefaultInsertQueue = 256
	// DefaultBasePace is the minimum spacing between insertion attempts
	// when the ring looks idle.
	DefaultBasePace = 0
	// DefaultMaxPace bounds the adaptive backoff.
	DefaultMaxPace = 50 * sim.Microsecond
	// paceStep is the initial backoff when the local view is congested.
	paceStep = 500 * sim.Nanosecond
	// DefaultMaxHops is the transit hop budget for stations built
	// without topology knowledge — the historical value, enough for
	// any ≤255-node ring. Stacks that know the fabric size scale it
	// with MaxHopsFor: the budget must exceed the ring circumference
	// (a broadcast legitimately crosses every hop) but stay small
	// enough to expire transition-time loops promptly — the expiry is
	// part of the deterministic model, so serial and sharded engines
	// cut a loop at exactly the same hop.
	DefaultMaxHops = 255
)

// MaxHopsFor returns the transit hop budget for a fabric of the given
// node count. Every fabric the one-byte address space could build
// (≤255 nodes) keeps the historical 255 bit for bit — their reports
// must not change under this PR — and only fabrics beyond the v1
// ceiling scale up, to twice the ring circumference (room for a full
// broadcast tour plus mid-heal detours), capped at the counter range.
func MaxHopsFor(nodes int) uint16 {
	if nodes <= DefaultMaxHops {
		return DefaultMaxHops
	}
	h := 2 * nodes
	if h > 65535 {
		return 65535
	}
	return uint16(h)
}

// Station is one node's MAC engine.
type Station struct {
	ID micropacket.NodeID
	K  *sim.Kernel

	// Ports are the node's physical ports, indexed by switch.
	Ports []*phys.Port
	// net is the Net the ports live on; frames are sized under its
	// wire-format version.
	net *phys.Net

	egress       *phys.Port
	egressSwitch int

	// InsertThreshold is the maximum egress queue length at which the
	// station may still insert its own traffic.
	InsertThreshold int
	// ForwardDelay is the transit-path latency through the node.
	ForwardDelay sim.Time
	// MaxInsertQueue bounds the host insertion queue.
	MaxInsertQueue int
	// MaxHops expires transit frames after this many forwards,
	// protecting against transient loops while rosters converge. It
	// must exceed the largest possible ring circumference (a broadcast
	// legitimately crosses every hop of the ring), so it is as wide as
	// the node address space: the historical uint8 counter silently
	// expired broadcasts on >255-node rings.
	MaxHops uint16

	// OnDeliver receives MicroPackets addressed to (or broadcast past)
	// this node.
	OnDeliver func(*micropacket.Packet)
	// OnControl receives Rostering MicroPackets; they do not transit
	// the ring MAC (the rostering agent floods them itself).
	OnControl func(*phys.Port, phys.Frame)
	// OnStatus receives port status changes (loss of light / re-light).
	OnStatus func(*phys.Port, bool)

	// LastRx is the time the station last saw any frame arrive on any
	// of its ports — the ring-liveness signal the rostering watchdog
	// uses to detect a dead upstream hop (a node failure leaves all
	// fibers lit, so loss-of-light alone cannot catch it).
	LastRx sim.Time

	insertQ []phys.Frame
	pace    sim.Time
	paceTmr *sim.Timer

	// fwdFree pools transit-forward events: the per-forward closure +
	// Timer pair was a top allocation site at scale. Records are only
	// touched from this station's kernel context.
	fwdFree []*fwdEvent

	// Local-view congestion estimate: EWMA of egress queue occupancy
	// sampled at each transit forward, scaled ×16 fixed point.
	viewX16 int

	// Counters.
	Inserted  uint64 // own frames put on the ring
	Forwarded uint64 // transit frames passed through
	Delivered uint64 // frames handed to OnDeliver
	Stripped  uint64 // own broadcasts removed after a full tour
	Refused   uint64 // host sends rejected (queue full) — backpressure
	Unrouted  uint64 // transit frames with no egress (mid-rostering)
	Expired   uint64 // transit frames that exceeded MaxHops
}

// NewStation creates a station owning the given ports (one per switch)
// and installs itself as their frame/status handler.
func NewStation(k *sim.Kernel, id micropacket.NodeID, ports []*phys.Port) *Station {
	s := &Station{
		ID: id, K: k, Ports: ports,
		InsertThreshold: DefaultInsertThreshold,
		ForwardDelay:    DefaultForwardDelay,
		MaxInsertQueue:  DefaultInsertQueue,
		MaxHops:         DefaultMaxHops,
		egressSwitch:    -1,
	}
	for _, p := range ports {
		if p == nil {
			continue // the topology does not attach this node there
		}
		if s.net == nil {
			s.net = p.Net()
		}
		p.SetHandler(s.handleFrame)
		p.SetStatusHandler(func(port *phys.Port, up bool) {
			if s.OnStatus != nil {
				s.OnStatus(port, up)
			}
		})
		p.SetTxDone(s.tryInsert)
	}
	return s
}

// SetEgress programs the station's ring egress: frames leave via the
// port facing switch sw. Pass sw < 0 to detach from the ring.
func (s *Station) SetEgress(sw int) {
	if sw < 0 {
		s.egress = nil
		s.egressSwitch = -1
		return
	}
	s.egress = s.Ports[sw]
	s.egressSwitch = sw
	s.tryInsert()
}

// EgressSwitch returns the switch index of the current egress, or -1.
func (s *Station) EgressSwitch() int { return s.egressSwitch }

// Net returns the phys.Net the station's ports live on (and thereby the
// frame-accounting ledger its MAC decisions are counted in).
func (s *Station) Net() *phys.Net { return s.net }

// OnRing reports whether the station currently has a ring egress.
func (s *Station) OnRing() bool { return s.egress != nil }

// QueueLen returns the host insertion queue length.
func (s *Station) QueueLen() int { return len(s.insertQ) }

// LocalView returns the station's current congestion estimate (EWMA of
// egress occupancy; 0 = idle ring).
func (s *Station) LocalView() float64 { return float64(s.viewX16) / 16 }

// Send enqueues a host MicroPacket for insertion onto the ring. It
// returns false (backpressure) when the insertion queue is full or the
// station is off-ring.
func (s *Station) Send(p *micropacket.Packet) bool {
	if s.egress == nil || len(s.insertQ) >= s.MaxInsertQueue {
		s.Refused++
		return false
	}
	s.insertQ = append(s.insertQ, s.net.NewFrame(p))
	s.tryInsert()
	return true
}

// tryInsert inserts the head host frame if the MAC rules allow it now,
// otherwise arms the adaptive pacing timer.
func (s *Station) tryInsert() {
	if s.egress == nil || len(s.insertQ) == 0 {
		return
	}
	if s.egress.QueueLen() <= s.InsertThreshold {
		// The egress is idle: insert now, even if a paced retry was
		// pending (a tx completion beat the timer to the opportunity).
		if s.paceTmr != nil {
			s.paceTmr.Cancel()
			s.paceTmr = nil
		}
		f := s.insertQ[0]
		s.insertQ = s.insertQ[1:]
		if s.egress.Send(f) {
			s.Inserted++
		}
		// Ring looks usable from here: relax the pace.
		s.pace /= 2
		if s.pace < DefaultBasePace {
			s.pace = DefaultBasePace
		}
		return
	}
	if s.paceTmr != nil && s.paceTmr.Active() {
		return // a paced attempt is already scheduled
	}
	// Local view says the ring is busy: back off and retry later.
	if s.pace == 0 {
		s.pace = paceStep
	} else {
		s.pace *= 2
		if s.pace > DefaultMaxPace {
			s.pace = DefaultMaxPace
		}
	}
	s.paceTmr = s.K.After(s.pace, func() { s.tryInsert() })
}

// KeepaliveTag marks Diagnostic MicroPackets used as ring keepalives;
// they refresh LastRx and are stripped without host delivery.
const KeepaliveTag = 0xA5

// handleFrame implements the ring forwarding rules.
func (s *Station) handleFrame(port *phys.Port, f phys.Frame) {
	s.LastRx = s.K.Now()
	pkt := f.Pkt
	if pkt.Type == micropacket.TypeRostering {
		if s.OnControl != nil {
			s.OnControl(port, f) // the agent accounts the frame's fate
		} else {
			s.net.Acct.Lose(frameacct.LossNoHandler)
		}
		return
	}
	if pkt.Type == micropacket.TypeDiagnostic && pkt.Tag == KeepaliveTag && pkt.Dst == s.ID {
		// Liveness already recorded; strip silently.
		s.net.Acct.Consume(frameacct.ConsumeKeepalive)
		return
	}
	switch {
	case pkt.IsBroadcast() && pkt.Src == s.ID:
		// Our broadcast completed a full tour: strip it.
		s.Stripped++
		s.net.Acct.Consume(frameacct.ConsumeBroadcastStrip)
		return
	case pkt.IsBroadcast():
		// The host observes a copy; the frame itself continues its tour
		// (its ledger fate is decided by forward).
		s.Delivered++
		s.net.Acct.HostCopy()
		if s.OnDeliver != nil {
			s.OnDeliver(pkt)
		}
		s.forward(f)
	case pkt.Dst == s.ID:
		// Destination strip: unicast leaves the ring here.
		s.Delivered++
		s.net.Acct.Consume(frameacct.ConsumeHost)
		if s.OnDeliver != nil {
			s.OnDeliver(pkt)
		}
	default:
		s.forward(f)
	}
}

// fwdEvent is one pooled transit-forward: dispatch recycles the record
// before sending, so a steady-state forward allocates nothing.
type fwdEvent struct {
	s   *Station
	f   phys.Frame
	run func()
}

func (e *fwdEvent) dispatch() {
	s, f := e.s, e.f
	e.s, e.f = nil, phys.Frame{}
	s.fwdFree = append(s.fwdFree, e)
	s.net.Acct.Exit()
	if s.egress == nil {
		s.Unrouted++
		s.net.Acct.Lose(frameacct.LossUnroutedTransit)
		return
	}
	s.Forwarded++
	s.net.Acct.Relaunch()
	s.egress.Send(f)
}

// forward sends a transit frame out the egress after the insertion
// register delay. Transit traffic has priority by construction: it is
// enqueued unconditionally, whereas insertion checks occupancy first.
func (s *Station) forward(f phys.Frame) {
	if s.egress == nil {
		s.Unrouted++
		s.net.Acct.Lose(frameacct.LossUnroutedTransit)
		return
	}
	if f.Hops >= s.MaxHops {
		s.Expired++
		s.net.Acct.Lose(frameacct.LossHopExpired)
		return
	}
	f.Hops++
	s.net.Acct.Enter()
	// Update the local view (EWMA with alpha = 1/4, ×16 fixed point).
	occ := s.egress.QueueLen()
	s.viewX16 += (occ*16 - s.viewX16) / 4
	var e *fwdEvent
	if m := len(s.fwdFree); m > 0 {
		e = s.fwdFree[m-1]
		s.fwdFree = s.fwdFree[:m-1]
	} else {
		e = &fwdEvent{}
		e.run = e.dispatch
	}
	e.s, e.f = s, f
	s.K.Do(s.K.Now()+s.ForwardDelay, e.run)
}
