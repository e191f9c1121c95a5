// Package frameacct is the frame-lifecycle accounting ledger: every
// place the simulator creates or destroys a frame records a typed
// transition here, so the fabric can prove a conservation invariant —
// every frame offered to a port is eventually wire-delivered, counted
// as a typed loss, or still resident in a FIFO / fiber / device latency
// stage. There are no anonymous discards: a frame death without a
// LossCause is a bug this package exists to surface.
//
// The ledger is two exact equations over monotone counters and signed
// residual gauges, both holding at any parked instant (between kernel
// runs, at window barriers, in reports):
//
//	wire:   Offered == WireDelivered + Σ wire losses + InFifo + InFlight
//	device: WireDelivered == Σ Consumed + Σ device losses
//	                          + Relaunched + InDevice
//
// Wire losses are deaths between a Port.Send and the receiving
// handler (dark port, full FIFO, FIFO cleared by a link failure, cut
// fiber, CRC); device losses are deaths inside a receiving switch,
// station or agent (dead switch, unrouted crossbar, hop expiry, flood
// dedup, ...). Relaunched counts transit re-offers (a switch crossbar
// forward, a station ring forward): the same frame re-enters the wire
// equation as a new offer, so fresh traffic is the derived
// Origins() == Offered - Relaunched and the combined invariant is the
// ISSUE's "inserted == delivered + Σ counted losses" with the three
// residual gauges making it exact mid-flight.
//
// Accts are per-Net and therefore per-shard: every mutation happens in
// the owning shard's kernel context or at a barrier with every kernel
// parked, the same single-writer discipline as the rest of the Net.
// Per-Net gauges of a sharded fabric may go negative (a cross-shard
// frame launches on the source Net and arrives on the destination
// Net); only the fabric-wide Sum balances, which is what Violations
// checks.
package frameacct

import "fmt"

// LossCause is the closed enumeration of frame deaths. Every discard
// site in phys/insertion/rostering names exactly one cause; adding a
// new death site means adding (or reusing) a cause here and calling
// Lose at the site — the framesink ampvet analyzer flags frame-handling
// code that returns without an accounting call.
type LossCause uint8

const (
	// Wire-level causes: deaths between Send and the receiving handler.

	// LossDarkPort: offered to a port whose link is absent or dark.
	LossDarkPort LossCause = iota
	// LossFifoFull: offered to a full egress FIFO (congestion).
	LossFifoFull
	// LossFifoClear: queued in an egress FIFO that a Link.Fail cleared
	// before serialization started.
	LossFifoClear
	// LossLinkCut: in flight (serializing or propagating) when the
	// fiber was cut — the stale-link-epoch discard at delivery.
	LossLinkCut
	// LossCRC: discarded by the DeepPHY receive datapath (code
	// violation / bad CRC).
	LossCRC

	// Device-level causes: deaths inside a receiving device.

	// LossNoHandler: delivered to a port with no frame handler (or a
	// station whose control hook is unset).
	LossNoHandler
	// LossSwitchDead: arrived at (or was latency-staged inside) a
	// failed switch.
	LossSwitchDead
	// LossUnroutedXbar: node-port ingress with no crossbar route.
	LossUnroutedXbar
	// LossUnroutedVC: trunk ingress with no virtual-circuit route.
	LossUnroutedVC
	// LossFloodExpired: rostering flood dropped at the switch hop
	// limit.
	LossFloodExpired
	// LossFloodDeduped: rostering flood dropped as an already-seen
	// wave.
	LossFloodDeduped
	// LossEgressDark: a routed crossbar forward whose egress port went
	// dark (or out of range) before the cut-through latency elapsed.
	LossEgressDark
	// LossUnroutedTransit: station transit with no ring egress
	// (mid-rostering).
	LossUnroutedTransit
	// LossHopExpired: station transit past the MaxHops budget.
	LossHopExpired
	// LossAgentStopped: rostering frame at a stopped agent (node not
	// booted or shut down).
	LossAgentStopped
	// LossStaleRound: rostering announcement of a superseded epoch.
	LossStaleRound
	// LossDupAnnounce: rostering announcement already in the agent's
	// database (the flood-loop breaker).
	LossDupAnnounce

	// NumCauses bounds the enum; counters are arrays indexed by cause.
	NumCauses
)

// lossNames are the stable snake_case identifiers used as JSON keys
// and trace text — part of the report format, do not renumber.
var lossNames = [NumCauses]string{
	"dark_port", "fifo_full", "fifo_clear", "link_cut", "crc",
	"no_handler", "switch_dead", "unrouted_crossbar", "unrouted_vc",
	"flood_expired", "flood_deduped", "egress_dark",
	"unrouted_transit", "hop_expired",
	"agent_stopped", "stale_round", "dup_announce",
}

// String returns the cause's stable snake_case name.
func (c LossCause) String() string {
	if c < NumCauses {
		return lossNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Wire reports whether the cause is a wire-level death (counted in the
// wire conservation equation rather than the device one).
func (c LossCause) Wire() bool { return c <= LossCRC }

// ConsumeKind is the closed enumeration of legitimate frame ends: the
// frame reached the consumer it existed for.
type ConsumeKind uint8

const (
	// ConsumeHost: unicast delivered to its destination host.
	ConsumeHost ConsumeKind = iota
	// ConsumeBroadcastStrip: own broadcast stripped after a full tour.
	ConsumeBroadcastStrip
	// ConsumeKeepalive: ring keepalive stripped at its destination.
	ConsumeKeepalive
	// ConsumeControl: rostering announcement accepted into an agent's
	// link-state database (re-floods are fresh origins).
	ConsumeControl
	// ConsumeFloodFanout: rostering flood absorbed by a switch's
	// fan-out stage (each emitted copy is a fresh origin).
	ConsumeFloodFanout

	// NumConsumes bounds the enum.
	NumConsumes
)

var consumeNames = [NumConsumes]string{
	"host", "broadcast_strip", "keepalive", "control", "flood_fanout",
}

// String returns the kind's stable snake_case name.
func (k ConsumeKind) String() string {
	if k < NumConsumes {
		return consumeNames[k]
	}
	return fmt.Sprintf("consume(%d)", uint8(k))
}

// Acct is one Net's frame ledger. All fields are plain integers
// mutated from the owning shard's kernel context (or a parked
// barrier); the hot-path methods are field increments so accounting
// stays inside the 25% benchguard gate.
type Acct struct {
	// Offered counts Send/SendPriority calls (origins + relaunches).
	Offered uint64
	// WireDelivered counts frames handed to CompleteDelivery's
	// handler stage (the wire equation's delivery term).
	WireDelivered uint64
	// Relaunched counts transit re-offers: a device putting the same
	// frame back on the wire (switch crossbar forward, station ring
	// forward). Offered - Relaunched == fresh origins.
	Relaunched uint64
	// HostCopies counts broadcast deliveries observed by transit hosts
	// — copies of a frame that continues its tour, outside the
	// conservation equations.
	HostCopies uint64
	// Losses counts frame deaths by cause.
	Losses [NumCauses]uint64
	// Consumed counts legitimate frame ends by kind.
	Consumed [NumConsumes]uint64

	// Residual gauges: where live frames currently are. Signed —
	// per-Net values of a sharded fabric go negative when a frame
	// crosses Nets; only the fabric-wide sum must balance.
	InFifo   int64 // queued in an egress FIFO, not yet serializing
	InFlight int64 // serializing or propagating (delivery scheduled)
	InDevice int64 // inside a device latency stage (switch/station)

	// Observer, when set, sees every counted loss (the trace layer's
	// frame-loss timeline). It is a pure callback — it must not
	// schedule kernel events, so attaching it stays behavior-neutral.
	Observer func(cause LossCause, n int)
}

// Offer counts a Send/SendPriority attempt.
func (a *Acct) Offer() { a.Offered++ }

// Enqueue moves an accepted offer into the FIFO residual.
func (a *Acct) Enqueue() { a.InFifo++ }

// Launch moves the FIFO head onto the wire (serialization started and
// the delivery event is scheduled).
func (a *Acct) Launch() { a.InFifo--; a.InFlight++ }

// Arrive retires the wire residual as the delivery event fires (the
// frame's fate — loss or delivery — is counted by the caller).
func (a *Acct) Arrive() { a.InFlight-- }

// Deliver counts a frame reaching the receiving handler stage.
func (a *Acct) Deliver() { a.WireDelivered++ }

// Enter moves a delivered frame into a device latency stage.
func (a *Acct) Enter() { a.InDevice++ }

// Exit retires the device residual as the latency stage fires.
func (a *Acct) Exit() { a.InDevice-- }

// Relaunch counts a device re-offering a transit frame to the wire.
func (a *Acct) Relaunch() { a.Relaunched++ }

// HostCopy counts a transit host observing a broadcast copy.
func (a *Acct) HostCopy() { a.HostCopies++ }

// Consume counts a legitimate frame end.
func (a *Acct) Consume(k ConsumeKind) { a.Consumed[k]++ }

// Lose counts one frame death.
func (a *Acct) Lose(c LossCause) {
	a.Losses[c]++
	if a.Observer != nil {
		a.Observer(c, 1)
	}
}

// LoseN counts n frame deaths of one cause (an egress-FIFO clear).
func (a *Acct) LoseN(c LossCause, n int) {
	if n <= 0 {
		return
	}
	a.Losses[c] += uint64(n)
	if a.Observer != nil {
		a.Observer(c, n)
	}
}

// ClearFifo counts a Link.Fail destroying n queued-but-unlaunched
// frames, retiring their FIFO residual.
func (a *Acct) ClearFifo(n int) {
	if n <= 0 {
		return
	}
	a.InFifo -= int64(n)
	a.LoseN(LossFifoClear, n)
}

// Add accumulates b into a (fabric-wide summation over shard Nets).
// The Observer is not part of the arithmetic state.
func (a *Acct) Add(b *Acct) {
	a.Offered += b.Offered
	a.WireDelivered += b.WireDelivered
	a.Relaunched += b.Relaunched
	a.HostCopies += b.HostCopies
	for i := range a.Losses {
		a.Losses[i] += b.Losses[i]
	}
	for i := range a.Consumed {
		a.Consumed[i] += b.Consumed[i]
	}
	a.InFifo += b.InFifo
	a.InFlight += b.InFlight
	a.InDevice += b.InDevice
}

// Origins returns the fresh-traffic count: offers minus transit
// relaunches.
func (a *Acct) Origins() uint64 { return a.Offered - a.Relaunched }

// WireLosses sums the wire-level causes.
func (a *Acct) WireLosses() uint64 {
	var n uint64
	for c := LossCause(0); c < NumCauses; c++ {
		if c.Wire() {
			n += a.Losses[c]
		}
	}
	return n
}

// DeviceLosses sums the device-level causes.
func (a *Acct) DeviceLosses() uint64 {
	var n uint64
	for c := LossCause(0); c < NumCauses; c++ {
		if !c.Wire() {
			n += a.Losses[c]
		}
	}
	return n
}

// ConsumedTotal sums every consume kind.
func (a *Acct) ConsumedTotal() uint64 {
	var n uint64
	for _, v := range a.Consumed {
		n += v
	}
	return n
}

// Conserved reports whether both conservation equations balance.
func (a *Acct) Conserved() bool { return len(a.Violations()) == 0 }

// Violations checks the two conservation equations on a fabric-wide
// sum and describes every imbalance (empty means conserved). Call it
// only on the Sum of every shard's Acct at a parked instant: per-Net
// ledgers of a sharded fabric intentionally do not balance alone.
func (a *Acct) Violations() []string {
	var out []string
	// Wire: Offered == WireDelivered + wire losses + InFifo + InFlight.
	lhs := int64(a.Offered)
	rhs := int64(a.WireDelivered) + int64(a.WireLosses()) + a.InFifo + a.InFlight
	if lhs != rhs {
		out = append(out, fmt.Sprintf(
			"frame conservation (wire): offered %d != delivered %d + wire losses %d + in-fifo %d + in-flight %d (imbalance %+d)",
			a.Offered, a.WireDelivered, a.WireLosses(), a.InFifo, a.InFlight, lhs-rhs))
	}
	// Device: WireDelivered == consumed + device losses + relaunched + InDevice.
	lhs = int64(a.WireDelivered)
	rhs = int64(a.ConsumedTotal()) + int64(a.DeviceLosses()) + int64(a.Relaunched) + a.InDevice
	if lhs != rhs {
		out = append(out, fmt.Sprintf(
			"frame conservation (device): delivered %d != consumed %d + device losses %d + relaunched %d + in-device %d (imbalance %+d)",
			a.WireDelivered, a.ConsumedTotal(), a.DeviceLosses(), a.Relaunched, a.InDevice, lhs-rhs))
	}
	if a.InFifo < 0 || a.InFlight < 0 || a.InDevice < 0 {
		out = append(out, fmt.Sprintf(
			"frame conservation: negative fabric-wide residual (in-fifo %d, in-flight %d, in-device %d)",
			a.InFifo, a.InFlight, a.InDevice))
	}
	return out
}

// LossMap returns the nonzero loss counters keyed by cause name
// (deterministic in JSON: encoding/json sorts map keys).
func (a *Acct) LossMap() map[string]uint64 {
	var m map[string]uint64
	for c := LossCause(0); c < NumCauses; c++ {
		if a.Losses[c] != 0 {
			if m == nil {
				m = map[string]uint64{}
			}
			m[c.String()] = a.Losses[c]
		}
	}
	return m
}

// ConsumeMap returns the nonzero consume counters keyed by kind name.
func (a *Acct) ConsumeMap() map[string]uint64 {
	var m map[string]uint64
	for k := ConsumeKind(0); k < NumConsumes; k++ {
		if a.Consumed[k] != 0 {
			if m == nil {
				m = map[string]uint64{}
			}
			m[k.String()] = a.Consumed[k]
		}
	}
	return m
}
