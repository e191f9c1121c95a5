// Package baseline implements the conventional-network comparators that
// AmpNet's claims are measured against in the experiments (DESIGN.md,
// S14). The paper argues AmpNet is better than contemporary cluster
// interconnects in three ways; each gets a concrete strawman:
//
//   - TokenRing: a classic token-passing MAC. One transmitter at a time
//     — the contrast for slide 7's "multiple data streams inserted onto
//     a segment at each node" (experiment E3).
//
//   - DropTailStation: a ring MAC that inserts greedily with no local
//     flow-control view. Under all-to-all broadcast it overruns egress
//     FIFOs and drops — the contrast for slide 8's lossless guarantee
//     (experiment E4).
//
//   - StaticNet: a switched network whose forwarding is programmed once
//     and re-converges only after a long protection delay (spanning-
//     tree style), with no rostering — the contrast for slide 16's
//     two-ring-tour self-healing (experiment E11).
package baseline

import (
	"repro/internal/micropacket"
	"repro/internal/phys"
	"repro/internal/sim"
)

// --- token ring ---

// tokenTag marks the circulating token (a Diagnostic MicroPacket).
const tokenTag = 0x70

// TokenStation is one station on a token-passing ring.
type TokenStation struct {
	ID      micropacket.NodeID
	K       *sim.Kernel
	ring    *TokenRing
	egress  *phys.Port
	sendQ   []phys.Frame
	holding bool

	// OnDeliver receives frames addressed to (or broadcast past) this
	// station.
	OnDeliver func(*micropacket.Packet)

	// Counters (mirror insertion.Station where meaningful).
	Sent      uint64
	Delivered uint64
	Refused   uint64
}

// TokenRing couples n stations on one switch into a token ring.
type TokenRing struct {
	K *sim.Kernel
	// Burst is how many queued frames a station may send per token
	// visit.
	Burst int
	// TokenHold is the processing delay before passing the token on.
	TokenHold sim.Time
	// MaxQueue bounds each station's send queue.
	MaxQueue int

	Stations []*TokenStation
	// Rotations counts full token tours.
	Rotations uint64
}

// DefaultTokenHold is the per-visit token processing latency.
const DefaultTokenHold = 1 * sim.Microsecond

// NewTokenRing wires n stations into a logical ring over switch 0 of
// the cluster (ports must be otherwise unused).
func NewTokenRing(k *sim.Kernel, cluster *phys.Cluster) *TokenRing {
	tr := &TokenRing{K: k, Burst: 8, TokenHold: DefaultTokenHold, MaxQueue: 256}
	n := cluster.NumNodes()
	for i := 0; i < n; i++ {
		st := &TokenStation{ID: micropacket.NodeID(i), K: k, ring: tr}
		st.egress = cluster.NodePorts[i][0]
		i := i
		cluster.NodePorts[i][0].SetHandler(func(_ *phys.Port, f phys.Frame) { st.handle(f) })
		tr.Stations = append(tr.Stations, st)
		cluster.Switches[0].SetRoute(i, (i+1)%n)
	}
	return tr
}

// Start injects the token at station 0.
func (tr *TokenRing) Start() {
	tr.Stations[0].acquireToken()
}

// Send queues a frame at station id; false = queue full (backpressure).
func (tr *TokenRing) Send(id int, p *micropacket.Packet) bool {
	st := tr.Stations[id]
	if len(st.sendQ) >= tr.MaxQueue {
		st.Refused++
		return false
	}
	st.sendQ = append(st.sendQ, st.egress.Net().NewFrame(p))
	return true
}

// acquireToken gives the station its transmission opportunity.
func (st *TokenStation) acquireToken() {
	st.holding = true
	n := st.ring.Burst
	if n > len(st.sendQ) {
		n = len(st.sendQ)
	}
	for i := 0; i < n; i++ {
		st.egress.Send(st.sendQ[i])
		st.Sent++
	}
	st.sendQ = st.sendQ[n:]
	// Pass the token after the hold time (its wire time is modeled by
	// the token frame itself).
	st.K.After(st.ring.TokenHold, func() {
		st.holding = false
		tok := micropacket.NewDiagnostic(st.ID, micropacket.Broadcast, tokenTag)
		st.egress.Send(st.egress.Net().NewFrame(tok))
	})
}

// handle processes an arriving frame: token, delivery, or transit.
func (st *TokenStation) handle(f phys.Frame) {
	pkt := f.Pkt
	if pkt.Type == micropacket.TypeDiagnostic && pkt.Tag == tokenTag {
		if st.ID == 0 {
			st.ring.Rotations++
		}
		st.acquireToken()
		return
	}
	switch {
	case pkt.IsBroadcast() && pkt.Src == st.ID:
		return // strip own broadcast
	case pkt.IsBroadcast():
		st.Delivered++
		if st.OnDeliver != nil {
			st.OnDeliver(pkt)
		}
		st.egress.Send(f)
	case pkt.Dst == st.ID:
		st.Delivered++
		if st.OnDeliver != nil {
			st.OnDeliver(pkt)
		}
	default:
		st.egress.Send(f)
	}
}

// --- drop-tail ring ---

// DropTailStation is an insertion-ring station with the flow control
// removed: it inserts immediately, whatever its local view, so egress
// FIFOs overflow under load and frames are dropped (counted as
// frameacct.LossFifoFull in phys.Net.Acct).
type DropTailStation struct {
	ID     micropacket.NodeID
	K      *sim.Kernel
	egress *phys.Port

	OnDeliver func(*micropacket.Packet)

	Inserted  uint64
	Delivered uint64
	TxDropped uint64 // frames refused by the full egress FIFO
}

// NewDropTailRing wires greedy stations into a ring over switch 0,
// with deliberately small egress FIFOs (like a NIC with a shallow
// transmit queue and no backpressure).
func NewDropTailRing(k *sim.Kernel, cluster *phys.Cluster, fifoCap int) []*DropTailStation {
	n := cluster.NumNodes()
	var out []*DropTailStation
	for i := 0; i < n; i++ {
		st := &DropTailStation{ID: micropacket.NodeID(i), K: k}
		st.egress = cluster.NodePorts[i][0]
		st.egress.SetCapacity(fifoCap)
		cluster.NodePorts[i][0].SetHandler(func(_ *phys.Port, f phys.Frame) { st.handle(f) })
		cluster.Switches[0].SetRoute(i, (i+1)%n)
		out = append(out, st)
	}
	return out
}

// Send inserts immediately — no local-view check, no pacing.
func (st *DropTailStation) Send(p *micropacket.Packet) bool {
	if st.egress.Send(st.egress.Net().NewFrame(p)) {
		st.Inserted++
		return true
	}
	st.TxDropped++
	return false
}

func (st *DropTailStation) handle(f phys.Frame) {
	pkt := f.Pkt
	switch {
	case pkt.IsBroadcast() && pkt.Src == st.ID:
		return
	case pkt.IsBroadcast():
		st.Delivered++
		if st.OnDeliver != nil {
			st.OnDeliver(pkt)
		}
		st.egress.Send(f) // may drop: that is the point
	case pkt.Dst == st.ID:
		st.Delivered++
		if st.OnDeliver != nil {
			st.OnDeliver(pkt)
		}
	default:
		st.egress.Send(f)
	}
}

// --- static switched network ---

// StaticNet is a switched network with fixed forwarding and slow
// protection switching: after a failure it stays broken for
// ReconvergeDelay (spanning-tree style hold-down), then reprograms
// routes around surviving links. No network cache, no rostering.
type StaticNet struct {
	K       *sim.Kernel
	Cluster *phys.Cluster
	// ReconvergeDelay models STP-class re-convergence (hundreds of ms
	// to tens of seconds; default 1 s, generous to the baseline).
	ReconvergeDelay sim.Time

	Stations []*StaticStation
	// Reconvergences counts repair events.
	Reconvergences uint64
	pending        bool
}

// StaticStation is a plain store-and-forward endpoint on the static
// network.
type StaticStation struct {
	ID        micropacket.NodeID
	net       *StaticNet
	egress    *phys.Port
	OnDeliver func(*micropacket.Packet)
	Delivered uint64
	TxFail    uint64
}

// DefaultReconverge is the default protection-switching delay.
const DefaultReconverge = 1 * sim.Second

// NewStaticNet builds the baseline over the same redundant cluster
// hardware AmpNet uses, rings the nodes over switch 0, and watches for
// failures with the same PHY detection.
func NewStaticNet(k *sim.Kernel, cluster *phys.Cluster) *StaticNet {
	sn := &StaticNet{K: k, Cluster: cluster, ReconvergeDelay: DefaultReconverge}
	n := cluster.NumNodes()
	for i := 0; i < n; i++ {
		st := &StaticStation{ID: micropacket.NodeID(i), net: sn}
		i := i
		for s := 0; s < cluster.NumSwitches(); s++ {
			p := cluster.NodePorts[i][s]
			p.SetHandler(func(_ *phys.Port, f phys.Frame) { st.handle(f) })
			p.SetStatusHandler(func(_ *phys.Port, up bool) {
				if !up {
					sn.scheduleReconverge()
				}
			})
		}
		sn.Stations = append(sn.Stations, st)
	}
	sn.program()
	return sn
}

// program rebuilds a ring over the lowest switch alive at every
// consecutive pair, mimicking a manually-configured network.
func (sn *StaticNet) program() {
	n := sn.Cluster.NumNodes()
	for _, sw := range sn.Cluster.Switches {
		sw.ClearRoutes()
	}
	for i := 0; i < n; i++ {
		next := (i + 1) % n
		cands := sn.Cluster.LiveSwitchesBetween(i, next)
		st := sn.Stations[i]
		if len(cands) == 0 {
			st.egress = nil
			continue
		}
		s := cands[0]
		sn.Cluster.Switches[s].SetRoute(i, next)
		st.egress = sn.Cluster.NodePorts[i][s]
	}
}

// scheduleReconverge arms one repair after the protection delay.
func (sn *StaticNet) scheduleReconverge() {
	if sn.pending {
		return
	}
	sn.pending = true
	sn.K.After(sn.ReconvergeDelay, func() {
		sn.pending = false
		sn.Reconvergences++
		sn.program()
	})
}

// Send transmits from station id around the static ring.
func (sn *StaticNet) Send(id int, p *micropacket.Packet) bool {
	st := sn.Stations[id]
	if st.egress == nil || !st.egress.Send(st.egress.Net().NewFrame(p)) {
		st.TxFail++
		return false
	}
	return true
}

func (st *StaticStation) handle(f phys.Frame) {
	pkt := f.Pkt
	switch {
	case pkt.IsBroadcast() && pkt.Src == st.ID:
		return
	case pkt.IsBroadcast():
		st.Delivered++
		if st.OnDeliver != nil {
			st.OnDeliver(pkt)
		}
		st.forward(f)
	case pkt.Dst == st.ID:
		st.Delivered++
		if st.OnDeliver != nil {
			st.OnDeliver(pkt)
		}
	default:
		st.forward(f)
	}
}

func (st *StaticStation) forward(f phys.Frame) {
	if f.Hops >= 255 {
		return
	}
	f.Hops++
	if st.egress != nil {
		st.egress.Send(f)
	}
}
