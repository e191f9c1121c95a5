// Package phys models AmpNet's FC-0 physical layer (paper, slide 3) and
// the redundant switched topologies of slides 14–15: gigabit serial
// links with real serialization and fiber propagation delay, ports with
// bounded egress FIFOs, switches, and failure injection with
// loss-of-light detection.
//
// SUBST (DESIGN.md): this package replaces the paper's fibre-optic
// hardware. The constants match the Fibre Channel gigabit PHY the paper
// builds on: 1.0625 Gbaud line rate with 8b/10b coding (10 baud per
// byte) and ~5 ns/m propagation in fiber. Loss-of-light is detected by
// the receiver hardware after a configurable latency (default 10 µs).
package phys

import (
	"fmt"

	"repro/internal/enc8b10b"
	"repro/internal/frameacct"
	"repro/internal/micropacket"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Physical constants (Fibre Channel gigabit PHY).
const (
	// BaudRate is the line rate in symbols (10-bit characters) per
	// second: 1.0625 Gbaud.
	BaudRate = 1_062_500_000
	// NsPerMeter is signal propagation delay in optical fiber.
	NsPerMeter = 5.0
	// DefaultIFG is the inter-frame gap in bytes (two idle words).
	DefaultIFG = 8
	// DefaultDetect is the loss-of-light detection latency.
	DefaultDetect = 10 * sim.Microsecond
	// DefaultFIFO is the default egress FIFO capacity in frames.
	DefaultFIFO = 64
)

// SerTime returns the serialization time of n bytes at the line rate
// (10 baud per byte under 8b/10b).
func SerTime(n int) sim.Time {
	return sim.Time(float64(n)*10*1e9/BaudRate + 0.5)
}

// PropTime returns the propagation delay across meters of fiber.
func PropTime(meters float64) sim.Time {
	return sim.Time(meters*NsPerMeter + 0.5)
}

// Frame is one MicroPacket in flight, with its wire size (which
// determines serialization time) and a hop count used by the MAC to
// expire frames that would otherwise circulate during roster
// transitions.
type Frame struct {
	Pkt  *micropacket.Packet
	Wire int
	// Hops counts MAC forwards. It must be wide enough for a full tour
	// of the largest addressable ring (a broadcast crosses every hop),
	// so it tracks the micropacket.NodeID width.
	Hops uint16
	// VC is the frame's virtual-circuit tag, stamped by the first
	// switch on a hop with the ingress node-port index (the hop's
	// source node). Switches use it to route frames arriving over
	// inter-switch trunks; see Switch.SetVCRoute.
	VC uint16
	// Prio marks frames queued via SendPriority; used to keep priority
	// traffic FIFO among itself while it overtakes data.
	Prio bool
}

// NewFrame wraps a packet, computing its wire size under the Net's
// wire-format version (frame size sets serialization time, so the
// version is part of the fabric's timing model).
func (n *Net) NewFrame(p *micropacket.Packet) Frame {
	return Frame{Pkt: p, Wire: wire.Size(n.Wire, p.Type, len(p.Data))}
}

// Handler receives frames delivered to a port.
type Handler func(p *Port, f Frame)

// StatusHandler is notified of link status changes seen by a port:
// up=false on loss of light, up=true when light returns.
type StatusHandler func(p *Port, up bool)

// RemoteExchange carries frames between the Nets of a sharded fabric.
// When a port transmits to a peer owned by a different Net (a split
// link: the cross-shard fibers of internal/parsim), the frame is not
// delivered by a local kernel event; it is handed to the sender Net's
// exchange with its precise arrival time, and the engine injects it
// into the receiving shard's kernel at a window barrier. Conservative
// lookahead guarantees arrival is always beyond the current window, so
// the handoff never reorders anything.
type RemoteExchange interface {
	// RemoteFrame ships f from src to dst (a port of another Net)
	// arriving at the absolute virtual time arrival. link/epoch are
	// the sending link and its epoch at transmit start; the receiver
	// re-checks them at arrival exactly as a local delivery would, and
	// schedules the arrival under src's wire key (transmit start, port
	// identity) so same-instant ordering matches the serial engine.
	RemoteFrame(src, dst *Port, f Frame, link *Link, epoch uint64, arrival sim.Time)
}

// Net is a collection of ports and links sharing one simulation kernel
// and one set of PHY parameters.
type Net struct {
	K *sim.Kernel

	// Shard identifies this Net's shard in a sharded fabric (0 when
	// the whole fabric shares one Net). Remote, when set, receives
	// frames transmitted to ports of other Nets; without it such a
	// transmit panics (a split link needs an engine behind it).
	Shard  int
	Remote RemoteExchange

	// Wire is the fabric's wire-format version (see internal/wire): it
	// decides frame sizes (and thereby serialization times) and how
	// node addresses are carried in the DeepPHY datapath. NewNet
	// defaults to V1, the byte-exact historical format; fabrics larger
	// than its one-byte address space must run V2. Every Net of a
	// sharded fabric carries the same version (the builder stamps it
	// from the Topology).
	Wire wire.Version

	// IFG is the inter-frame gap in bytes added after every frame.
	IFG int
	// Detect is the loss-of-light detection latency.
	Detect sim.Time
	// FIFOCap is the egress FIFO capacity for new ports.
	FIFOCap int

	// DeepPHY, when true, serializes every delivered frame through the
	// full MicroPacket wire codec and the 8b/10b line code and decodes
	// it at the receiver — the hardware datapath, bit for bit. Frames
	// that fail to decode (code violation, bad CRC, broken ordered
	// sets) are discarded and counted as frameacct.LossCRC, exactly as
	// the NIC hardware discards them; higher layers recover via
	// sequence gaps and cache refresh. Corrupt, if set, may mutate the
	// symbol stream in flight (bit-error injection).
	DeepPHY bool
	Corrupt func(f Frame, syms []enc8b10b.Symbol)

	// Acct is the Net's frame-lifecycle ledger and its only frame
	// counter: every creation and typed death of a frame on this Net,
	// plus the residual gauges that make the conservation invariant
	// exact mid-flight. Congestion loss, which AmpNet's insertion-ring
	// flow control must keep at zero (slide 8), is
	// Losses[frameacct.LossFifoFull]; failure loss is LossDarkPort plus
	// LossLinkCut; deliveries are WireDelivered.
	Acct frameacct.Acct

	ports []*Port
	links []*Link

	// Hot-path event pools (see pool.go). Per-Net and therefore
	// per-shard: only ever touched from this Net's kernel context.
	delFree []*delivery
	txFree  []*txDone
	swFree  []*swForward
}

// NewNet creates a physical network on kernel k with default parameters.
func NewNet(k *sim.Kernel) *Net {
	return &Net{K: k, Wire: wire.V1, IFG: DefaultIFG, Detect: DefaultDetect, FIFOCap: DefaultFIFO}
}

// Port is one optical transceiver. Frames sent on a port are serialized
// in FIFO order at the line rate and delivered to the peer port after
// the fiber propagation delay.
type Port struct {
	Name string
	net  *Net
	link *Link
	end  int    // 0 or 1: which end of link
	uid  uint32 // stable identity hash of Name; wire-order tie-break

	onFrame  Handler
	onStatus StatusHandler
	onTxDone func()

	// The egress FIFO is a slice plus a head index: popping advances
	// head instead of reslicing from the front, so the backing array's
	// capacity is reused instead of being abandoned one slot per frame
	// (re-slicing with fifo[1:] made every steady-state Send reallocate
	// — the single largest allocation site in the simulator).
	fifo     []Frame
	fifoHead int
	cap      int
	txBusy   bool
}

// NewPort creates an unconnected port. handler may be nil (frames are
// then counted but discarded); use SetHandler to attach later.
func (n *Net) NewPort(name string, handler Handler) *Port {
	p := &Port{Name: name, net: n, onFrame: handler, cap: n.FIFOCap, uid: nameHash(name)}
	n.ports = append(n.ports, p)
	return p
}

// nameHash is FNV-1a over the port name: an engine-independent port
// identity (the serial and sharded builders create ports in different
// orders, but with identical names).
func nameHash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// UID returns the port's stable identity hash.
func (p *Port) UID() uint32 { return p.uid }

// SetHandler attaches the frame delivery callback.
func (p *Port) SetHandler(h Handler) { p.onFrame = h }

// SetStatusHandler attaches the link status callback.
func (p *Port) SetStatusHandler(h StatusHandler) { p.onStatus = h }

// SetTxDone attaches a callback invoked each time the transmitter
// finishes serializing a frame; MAC layers use it to schedule insertion
// opportunities.
func (p *Port) SetTxDone(h func()) { p.onTxDone = h }

// Connected reports whether the port is attached to a link.
func (p *Port) Connected() bool { return p.link != nil }

// Net returns the Net (and thereby the shard kernel) owning this port.
func (p *Port) Net() *Net { return p.net }

// Up reports whether the port's link exists and carries light.
func (p *Port) Up() bool { return p.link != nil && p.link.up }

// Peer returns the port at the other end of the link, or nil.
func (p *Port) Peer() *Port {
	if p.link == nil {
		return nil
	}
	return p.link.ports[1-p.end]
}

// QueueLen returns the number of frames waiting in the egress FIFO
// (including the frame currently being serialized).
func (p *Port) QueueLen() int { return len(p.fifo) - p.fifoHead }

// popFrame removes the head-of-line frame, reusing the backing array:
// the vacated slot is zeroed (dropping the packet reference) and the
// slice is rewound to full capacity once it empties.
func (p *Port) popFrame() {
	p.fifo[p.fifoHead] = Frame{}
	p.fifoHead++
	if p.fifoHead == len(p.fifo) {
		p.fifo = p.fifo[:0]
		p.fifoHead = 0
	} else if p.fifoHead >= 32 && p.fifoHead*2 >= len(p.fifo) {
		// A queue that never fully drains would otherwise march the
		// head through an ever-growing array; compact once the dead
		// prefix dominates.
		n := copy(p.fifo, p.fifo[p.fifoHead:])
		for i := n; i < len(p.fifo); i++ {
			p.fifo[i] = Frame{}
		}
		p.fifo, p.fifoHead = p.fifo[:n], 0
	}
}

// Capacity returns the egress FIFO capacity.
func (p *Port) Capacity() int { return p.cap }

// SetCapacity adjusts the egress FIFO capacity.
func (p *Port) SetCapacity(c int) { p.cap = c }

// Send enqueues a frame for transmission. It returns false — and counts
// a LossFifoFull or LossDarkPort — if the FIFO is full or the port is
// not connected. The MAC layer above is responsible for avoiding drops
// via flow control; the experiments assert the LossFifoFull count stays
// at zero for AmpNet MACs.
func (p *Port) Send(f Frame) bool {
	p.net.Acct.Offer()
	if p.link == nil || !p.link.up {
		p.net.Acct.Lose(frameacct.LossDarkPort)
		return false
	}
	if p.QueueLen() >= p.cap {
		p.net.Acct.Lose(frameacct.LossFifoFull)
		return false
	}
	p.fifo = append(p.fifo, f)
	p.net.Acct.Enqueue()
	if !p.txBusy {
		p.startTx()
	}
	return true
}

// SendPriority enqueues a frame ahead of queued frames (behind the one
// currently being serialized). It is not subject to the FIFO capacity:
// rostering traffic must get through even on a congested ring, as the
// hardware's dedicated rostering path guarantees. Returns false only if
// the link is dark.
func (p *Port) SendPriority(f Frame) bool {
	p.net.Acct.Offer()
	if p.link == nil || !p.link.up {
		p.net.Acct.Lose(frameacct.LossDarkPort)
		return false
	}
	f.Prio = true
	if p.txBusy && p.QueueLen() > 0 {
		// Insert behind the frame being serialized and behind any
		// earlier priority frames (priority is FIFO among itself).
		pos := p.fifoHead + 1
		for pos < len(p.fifo) && p.fifo[pos].Prio {
			pos++
		}
		p.fifo = append(p.fifo, Frame{})
		copy(p.fifo[pos+1:], p.fifo[pos:])
		p.fifo[pos] = f
	} else {
		p.fifo = append(p.fifo, f)
	}
	p.net.Acct.Enqueue()
	if !p.txBusy {
		p.startTx()
	}
	return true
}

// startTx begins serializing the head-of-line frame.
func (p *Port) startTx() {
	if p.QueueLen() == 0 {
		p.txBusy = false
		return
	}
	p.txBusy = true
	p.net.Acct.Launch()
	f := p.fifo[p.fifoHead]
	ser := SerTime(f.Wire + p.net.IFG)
	link := p.link
	epoch := link.epoch
	dst := link.ports[1-p.end]
	txAt := p.net.K.Now()
	if dst.net != p.net {
		// Split link: the peer lives on another shard's Net. Hand the
		// frame to the exchange with its exact arrival time; the engine
		// injects it into the receiving kernel at a window barrier
		// (always before arrival, by the lookahead bound).
		if p.net.Remote == nil {
			panic(fmt.Sprintf("phys: port %s transmits across Nets without a RemoteExchange", p.Name))
		}
		p.net.Remote.RemoteFrame(p, dst, f, link, epoch, txAt+ser+link.prop)
	} else {
		// Delivery at tx end + propagation, if the link survives. The
		// event carries the wire key (transmit start, port identity):
		// same-instant arrivals order by when their bits hit the fiber
		// on every engine, not by scheduler bookkeeping. The record is
		// pooled and the scheduling Timer-free (see pool.go): the
		// steady-state frame hop does not allocate.
		p.net.ScheduleDelivery(txAt+ser+link.prop, txAt, p.uid, dst, f, link, epoch)
	}
	// Transmitter frees at tx end, under the same wire key. A link
	// failure bumps the epoch and clears the FIFO, so a stale
	// completion must not pop the new queue.
	td := p.net.newTxDone(p, link, epoch)
	p.net.K.DoPri(txAt+ser, txAt, p.uid, td.run)
}

// CompleteDelivery is the receive side of a frame's flight: it runs at
// the frame's arrival time on the destination port's Net, re-checks
// that the link survived, applies the DeepPHY datapath, and hands the
// frame to the port's handler. Local deliveries and cross-shard
// injections share this path, so a split link delivers byte-for-byte
// what a local one would.
func (n *Net) CompleteDelivery(dst *Port, f Frame, link *Link, epoch uint64) {
	n.Acct.Arrive()
	if link.epoch != epoch || !link.up {
		n.Acct.Lose(frameacct.LossLinkCut)
		return
	}
	if n.DeepPHY {
		pkt, ok := n.deepPath(f)
		if !ok {
			n.Acct.Lose(frameacct.LossCRC)
			return
		}
		hops := f.Hops
		f = n.NewFrame(pkt)
		f.Hops = hops
	}
	n.Acct.Deliver()
	if dst.onFrame != nil {
		dst.onFrame(dst, f)
	} else {
		n.Acct.Lose(frameacct.LossNoHandler)
	}
}

// deepPath runs a frame through the real transmit and receive datapath:
// MicroPacket wire encode, 8b/10b line coding, optional corruption, and
// the receive-side decode. It returns the received packet, or ok=false
// when the hardware would discard the frame. Each frame starts from the
// canonical negative running disparity (frames are separated by idle
// fill words that re-establish it).
func (n *Net) deepPath(f Frame) (*micropacket.Packet, bool) {
	codec, err := wire.ForVersion(n.Wire)
	if err != nil {
		return nil, false
	}
	syms, err := wire.EncodeSymbols(codec, f.Pkt, enc8b10b.NewEncoder())
	if err != nil {
		return nil, false
	}
	if n.Corrupt != nil {
		n.Corrupt(f, syms)
	}
	pkt, _, err := wire.DecodeSymbols(syms, enc8b10b.NewDecoder())
	if err != nil {
		return nil, false
	}
	return pkt, true
}

// statusWatcher is a fabric-level observer of a link's light, bound to
// the kernel it must be notified on (its shard's kernel in a sharded
// fabric). Watchers fire after the same detection latency as port
// status handlers.
type statusWatcher struct {
	k  *sim.Kernel
	fn func(up bool)
}

// Link is a bidirectional fiber between two ports.
type Link struct {
	ports  [2]*Port
	prop   sim.Time
	up     bool
	epoch  uint64 // incremented on every failure, invalidating in-flight frames
	net    *Net
	Meters float64

	watchers []statusWatcher
}

// Connect joins two ports with meters of fiber. Both ports must be
// unconnected. The ports may belong to different Nets (a split link of
// a sharded fabric); the link is then registered with both Nets, and
// state flips (Fail/Restore) must only happen while both shards are
// parked on a window barrier.
func (n *Net) Connect(a, b *Port, meters float64) *Link {
	if a.link != nil || b.link != nil {
		panic(fmt.Sprintf("phys: port already connected (%s / %s)", a.Name, b.Name))
	}
	l := &Link{ports: [2]*Port{a, b}, prop: PropTime(meters), up: true, net: n, Meters: meters}
	a.link, a.end = l, 0
	b.link, b.end = l, 1
	n.links = append(n.links, l)
	if b.net != n {
		b.net.links = append(b.net.links, l)
	}
	return l
}

// Watch registers a status observer fired on kernel k after the
// detection latency whenever the link's light changes. The rostering
// layer uses it to sense trunk failures from every shard.
func (l *Link) Watch(k *sim.Kernel, fn func(up bool)) {
	l.watchers = append(l.watchers, statusWatcher{k: k, fn: fn})
}

// Up reports whether the link carries light.
func (l *Link) Up() bool { return l.up }

// Prop returns the one-way propagation delay.
func (l *Link) Prop() sim.Time { return l.prop }

// Fail cuts the fiber: in-flight frames are lost immediately and both
// ports observe loss of light after the detection latency.
func (l *Link) Fail() {
	if !l.up {
		return
	}
	l.up = false
	l.epoch++
	for _, p := range l.ports {
		// Frames queued behind the serializing head die here, uncounted
		// by any delivery event; the head itself (if the transmitter was
		// busy) is already launched and its scheduled arrival dies as a
		// counted stale-epoch LossLinkCut.
		cleared := p.QueueLen()
		if p.txBusy {
			cleared--
		}
		p.net.Acct.ClearFifo(cleared)
		for i := p.fifoHead; i < len(p.fifo); i++ {
			p.fifo[i] = Frame{}
		}
		p.fifo, p.fifoHead = p.fifo[:0], 0
		p.txBusy = false
	}
	l.notify(false)
}

// notify schedules the loss/return-of-light observations: each port's
// status handler on that port's own kernel, then every fabric watcher
// on its registered kernel — all after the detection latency. On a
// single-Net fabric every event lands on the same kernel with
// consecutive sequence numbers, which is exactly the historical
// ordering; on a sharded fabric each shard senses the change on its own
// kernel at the same virtual instant.
func (l *Link) notify(up bool) {
	for _, p := range l.ports {
		p := p
		p.net.K.Do(p.net.K.Now()+p.net.Detect, func() {
			if p.onStatus != nil {
				p.onStatus(p, up)
			}
		})
	}
	for _, w := range l.watchers {
		w := w
		w.k.Do(w.k.Now()+l.net.Detect, func() { w.fn(up) })
	}
}

// Restore re-lights the fiber; ports observe light after the detection
// latency.
func (l *Link) Restore() {
	if l.up {
		return
	}
	l.up = true
	l.notify(true)
}

// Links returns all links (for failure-injection sweeps).
func (n *Net) Links() []*Link { return n.links }

// Ports returns all ports.
func (n *Net) Ports() []*Port { return n.ports }
