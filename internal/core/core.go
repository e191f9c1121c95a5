// Package core assembles the full AmpNet system — physical fabric,
// MAC stations, rostering agents, distributed kernels, network cache,
// semaphores, AmpDC services, AmpIP stacks and failover managers — into
// one bootable simulated cluster. It is the integration point the
// public ampnet package (repo root) re-exports, and what the examples,
// experiments and benchmarks drive.
package core

import (
	"fmt"

	"repro/internal/ampdc"
	"repro/internal/ampdk"
	"repro/internal/ampip"
	"repro/internal/enc8b10b"
	"repro/internal/failover"
	"repro/internal/frameacct"
	"repro/internal/parsim"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Options configures a cluster. Zero values select the paper's
// defaults: the slide-14 quad-redundant 6×4 topology, 50 m fiber,
// version 1.0.
type Options struct {
	// Nodes and Switches shape the redundant fabric (slide 14:
	// 6 nodes × 4 switches is quad-redundant). Ignored when Fabric is
	// set (the topology carries its own sizes).
	Nodes    int
	Switches int
	// Fabric, if set, selects a declarative fabric topology — dual
	// counter-rotating rings, trunked switch meshes, sharded multi-ring
	// clusters (see phys.Uniform, phys.DualRing, phys.Mesh,
	// phys.Sharded). nil builds the paper's uniform segment from Nodes
	// and Switches.
	Fabric *phys.Topology
	// FiberMeters is the per-link fiber length.
	FiberMeters float64
	// Wire selects the MicroPacket wire-format version (internal/wire):
	// v1 is the byte-exact historical format (one address byte, ≤255
	// nodes), v2 widens node addresses to uint16 (≤65535 nodes). The
	// zero value is "auto" — the smallest version that fits the fabric
	// — so existing scenarios keep their bit-identical v1 reports and
	// big fabrics just work. An explicit v1 on a >255-node fabric is a
	// validation error naming the version.
	Wire wire.Version
	// Seed makes the whole run deterministic.
	Seed uint64
	// Regions adds application cache regions (id → bytes). Region 0 is
	// always the configuration database.
	Regions map[uint8]int
	// Version is the software version every node boots with; override
	// per node via VersionOf.
	Version ampdk.Version
	// VersionOf, if set, overrides Version per node id.
	VersionOf func(id int) ampdk.Version
	// HeartbeatInterval and HeartbeatMiss tune failure detection.
	HeartbeatInterval sim.Time
	HeartbeatMiss     int

	// Shards selects the parallel sharded engine (internal/parsim):
	// the fabric is partitioned by switch into this many shards, each
	// simulated on a private kernel, advancing in conservative
	// lookahead windows on its own OS thread. 0 or 1 run the serial
	// engine. A sharded run's Report is byte-identical to the serial
	// run's for the same seed; see DESIGN.md ("determinism under
	// parallelism") for the loads and options the parallel engine
	// supports. The shard count — not the machine — determines the
	// partition, so results stay machine-independent.
	Shards int

	// JoinTimeout, KeepaliveInterval and SilenceTimeout retune the
	// per-node liveness cadences for fabric size (big fabrics drown in
	// the room-sized defaults). Zero keeps each component's default.
	JoinTimeout       sim.Time
	KeepaliveInterval sim.Time
	SilenceTimeout    sim.Time

	// DeepPHY runs every delivered frame through the real datapath —
	// MicroPacket wire codec plus 8b/10b line coding — so the whole
	// stack is exercised bit-for-bit. Slower, but the strongest
	// fidelity mode; see phys.Net.DeepPHY.
	DeepPHY bool
	// BER, with DeepPHY, injects symbol errors with the given
	// per-symbol probability in [0, 1]. Corrupted frames are discarded
	// by the receive hardware (CRC/code violation) and repaired by the
	// higher layers. A nonzero BER without DeepPHY is an error: there
	// is no symbol stream to corrupt.
	BER float64

	// Telemetry, if set, receives the run's wall-clock span timeline
	// (window grant → shard run → barrier exchange) on the parallel
	// engine; see internal/telemetry. Attaching a recorder changes no
	// simulation behavior and no Report bytes — wall readings live only
	// in the recorder. Ignored on the serial engine.
	Telemetry *telemetry.Recorder
	// TelemetryInReport opts the deterministic telemetry plane
	// (per-shard window/event counters, heal-latency histograms — all
	// virtual-time quantities) into Report JSON as a "telemetry"
	// object. Off by default so existing report bytes are unchanged;
	// the plane still prints in Report.Summary() either way. Note that
	// the opted-in JSON names shard structure, so it only byte-matches
	// across runs with the same Shards value — unlike the base report,
	// which is byte-identical serial vs sharded.
	TelemetryInReport bool
}

func (o *Options) fill() {
	if o.Fabric != nil {
		// The topology is authoritative; mirror its sizes so reports
		// and plan validation see the real fabric shape.
		o.Nodes = o.Fabric.Nodes
		o.Switches = o.Fabric.Switches
		if o.FiberMeters == 0 {
			o.FiberMeters = o.Fabric.FiberM
		}
		if o.Wire == 0 {
			o.Wire = o.Fabric.Wire
		}
	}
	if o.Nodes == 0 {
		o.Nodes = 6
	}
	if o.Switches == 0 {
		o.Switches = 4
	}
	if o.FiberMeters == 0 {
		o.FiberMeters = 50
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Version == 0 {
		o.Version = 0x0100
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
}

// checkBER rejects a BER that is not a probability, or that would be
// silently ignored because DeepPHY is off. New panics with its error;
// Scenario.Run returns it.
func (o *Options) checkBER() error {
	if !(o.BER >= 0 && o.BER <= 1) {
		return fmt.Errorf("core: Options.BER = %v is not a probability in [0, 1]", o.BER)
	}
	if o.BER > 0 && !o.DeepPHY {
		return fmt.Errorf("core: Options.BER = %v needs Options.DeepPHY (bit errors are injected into the 8b/10b symbol stream)", o.BER)
	}
	return nil
}

// topology resolves the fabric to build: the declared Fabric, or the
// paper's uniform segment shaped by Nodes and Switches.
func (o *Options) topology() phys.Topology {
	var t phys.Topology
	if o.Fabric != nil {
		t = *o.Fabric
		if t.FiberM == 0 {
			t.FiberM = o.FiberMeters
		}
	} else {
		t = phys.Uniform(o.Nodes, o.Switches, o.FiberMeters)
	}
	if o.Wire != 0 {
		t.Wire = o.Wire
	}
	return t
}

// Cluster is a fully assembled AmpNet network.
type Cluster struct {
	Opts Options
	// K is the simulation kernel on the serial engine. Under
	// Options.Shards > 1 it is nil — each node runs on its shard's
	// kernel (Nodes[i].K), and driver-level time control goes through
	// the engine (Run, WaitUntil, Install). Nets lists every shard's
	// physical network (one entry on the serial engine); fabric-wide
	// counters are summed over it.
	K    *sim.Kernel
	Nets []*phys.Net
	Phys *phys.Cluster
	// Assign is the shard assignment the parallel engine runs under
	// (nil on the serial engine) — observability for reports and tools.
	Assign *phys.Assignment

	// eng abstracts serial vs parallel time control; par is non-nil
	// only under the parallel engine.
	eng engine
	par *parsim.Engine

	Nodes    []*ampdk.Node
	Services []*ampdc.Services
	Stacks   []*ampip.Stack
	Managers []*failover.Manager

	// OnEvent, if set, observes every plan event as it fires (see
	// Install). applied accumulates the fired events for reports;
	// pending holds installed events that have not fired yet (at
	// absolute times), so later Installs validate against them.
	OnEvent func(Event)
	applied []AppliedEvent
	pending []AppliedEvent
	// booted flips once Boot has been called; plan validation assumes
	// all nodes up until then.
	booted bool
}

// New assembles a cluster. Nothing runs until Boot (or manual Node
// boots) and Run. With Options.Shards > 1 the cluster is built over
// the parallel sharded engine (see newParallel); the resulting Cluster
// drives and reports identically — call Close when done with a
// directly-driven parallel cluster to release its worker threads
// (Scenario.Run does so automatically).
func New(opts Options) *Cluster {
	opts.fill()
	if err := opts.checkBER(); err != nil {
		panic(err)
	}
	if opts.Shards > 1 {
		return newParallel(opts)
	}
	c := &Cluster{Opts: opts}
	c.K = sim.NewKernel(opts.Seed)
	c.eng = serialEngine{c.K}
	net := phys.NewNet(c.K)
	c.Nets = []*phys.Net{net}
	net.DeepPHY = opts.DeepPHY
	if opts.BER > 0 {
		rng := c.K.RNG().Split()
		ber := opts.BER
		net.Corrupt = func(_ phys.Frame, syms []enc8b10b.Symbol) {
			for i := range syms {
				if rng.Float64() < ber {
					syms[i] ^= 1 << rng.Intn(10)
				}
			}
		}
	}
	ph, err := phys.BuildFabric(net, opts.topology())
	if err != nil { // a malformed Topology is a programming error
		panic(err)
	}
	c.Phys = ph
	c.buildNodes(func(int) *sim.Kernel { return c.K })
	return c
}

// buildNodes assembles the per-node software stacks; kernelOf names
// the kernel each node's components schedule on (the single kernel on
// the serial engine, the node's shard kernel under parsim).
func (c *Cluster) buildNodes(kernelOf func(node int) *sim.Kernel) {
	opts := c.Opts
	for i := 0; i < opts.Nodes; i++ {
		ver := opts.Version
		if opts.VersionOf != nil {
			ver = opts.VersionOf(i)
		}
		nd := ampdk.NewNode(kernelOf(i), c.Phys, ampdk.Config{
			ID: i, Version: ver, Regions: opts.Regions,
			HeartbeatInterval: opts.HeartbeatInterval,
			HeartbeatMiss:     opts.HeartbeatMiss,
			JoinTimeout:       opts.JoinTimeout,
			FiberM:            opts.FiberMeters,
		})
		nd.Agent.Shard = c.Phys.ShardOfNode(i)
		if opts.KeepaliveInterval != 0 {
			nd.Agent.KeepaliveInterval = opts.KeepaliveInterval
		}
		if opts.SilenceTimeout != 0 {
			nd.Agent.SilenceTimeout = opts.SilenceTimeout
		}
		c.Nodes = append(c.Nodes, nd)
		c.Services = append(c.Services, ampdc.New(nd))
		c.Stacks = append(c.Stacks, ampip.NewStack(nd))
		c.Managers = append(c.Managers, failover.NewManager(nd))
	}
}

// Boot boots every node at the current virtual time and runs the
// simulation until all compatible nodes are online (or the deadline
// passes). It returns an error naming any node that failed to come
// online within the window.
func (c *Cluster) Boot(window sim.Time) error {
	c.booted = true
	for _, nd := range c.Nodes {
		nd := nd
		nd.K.After(0, func() { nd.Boot() })
	}
	if window == 0 {
		window = 50 * sim.Millisecond
	}
	// The poll step is clamped to the deadline (stepUntil): a
	// sub-millisecond (or non-integral-ms) window must not run past it.
	if c.stepUntil(c.allSettled, c.Now()+window, sim.Millisecond) {
		return nil
	}
	// A shard panic mid-boot surfaces as itself, not as the stuck-node
	// symptom it leaves behind.
	if err := c.Err(); err != nil {
		return err
	}
	for _, nd := range c.Nodes {
		if nd.State != ampdk.StateOnline && nd.State != ampdk.StateRejected {
			return fmt.Errorf("core: node %d stuck in state %v after boot window", nd.Cfg.ID, nd.State)
		}
	}
	return nil
}

func (c *Cluster) allSettled() bool {
	for _, nd := range c.Nodes {
		if nd.State != ampdk.StateOnline && nd.State != ampdk.StateRejected {
			return false
		}
	}
	return true
}

// Run advances virtual time by d.
func (c *Cluster) Run(d sim.Time) { c.eng.RunUntil(c.eng.Now() + d) }

// Now returns the current virtual time.
func (c *Cluster) Now() sim.Time { return c.eng.Now() }

// Err returns the engine's sticky failure, if any: a shard panic.
// Once set, the simulation refuses to advance; Scenario.Run surfaces it
// as the run's error. Always nil on the serial engine.
func (c *Cluster) Err() error {
	if c.par != nil {
		return c.par.Err()
	}
	return nil
}

// Close releases engine resources (the parallel engine's worker
// threads). It is safe to call on any cluster, more than once, and is
// called automatically by Scenario.Run.
func (c *Cluster) Close() {
	if c.par != nil {
		c.par.Shutdown()
	}
}

// Roster returns the current logical ring as seen by the lowest online
// node (all live nodes converge to the same roster; crashed nodes hold
// stale ones).
func (c *Cluster) Roster() string {
	for _, nd := range c.Nodes {
		if nd.State != ampdk.StateOnline {
			continue
		}
		if r := nd.Agent.Roster(); r != nil {
			return r.String()
		}
	}
	return "<no roster>"
}

// RingSize returns the current logical ring size as seen by the lowest
// live node.
func (c *Cluster) RingSize() int {
	for _, nd := range c.Nodes {
		if nd.State == ampdk.StateOnline {
			if r := nd.Agent.Roster(); r != nil {
				return r.Size()
			}
		}
	}
	return 0
}

// FailSwitch takes a switch down; RestoreSwitch re-lights it.
func (c *Cluster) FailSwitch(s int)    { c.Phys.Switches[s].Fail() }
func (c *Cluster) RestoreSwitch(s int) { c.Phys.Switches[s].Restore() }

// FailLink cuts the fiber between node n and switch s.
func (c *Cluster) FailLink(n, s int)    { c.Phys.NodeLinks[n][s].Fail() }
func (c *Cluster) RestoreLink(n, s int) { c.Phys.NodeLinks[n][s].Restore() }

// FailTrunk cuts inter-switch trunk t; RestoreTrunk re-splices it.
func (c *Cluster) FailTrunk(t int)    { c.Phys.FailTrunk(t) }
func (c *Cluster) RestoreTrunk(t int) { c.Phys.RestoreTrunk(t) }

// FabricName names the built fabric shape ("uniform", "dualring", ...).
func (c *Cluster) FabricName() string {
	if c.Phys.Topo.Name == "" {
		return "uniform"
	}
	return c.Phys.Topo.Name
}

// WireVersion returns the wire-format version the fabric runs (the
// resolved version — never the zero "auto" value).
func (c *Cluster) WireVersion() wire.Version {
	return c.Phys.Topo.WireVersion()
}

// CrashNode kills a node (NIC and all); RebootNode brings it back
// through assimilation.
func (c *Cluster) CrashNode(n int)  { c.Nodes[n].Crash() }
func (c *Cluster) RebootNode(n int) { c.Nodes[n].Reboot() }

// Drops returns congestion drops on the fabric (must stay 0 under
// AmpNet MACs): the ledger's fifo_full losses, summed over shards.
func (c *Cluster) Drops() uint64 {
	return c.FrameAcct().Losses[frameacct.LossFifoFull]
}

// Lost returns frames destroyed by failures — offered to a dark port or
// in flight on a cut fiber — summed over shards. Frames cleared from an
// egress FIFO by a link failure appear only in the ledger (fifo_clear).
func (c *Cluster) Lost() uint64 {
	a := c.FrameAcct()
	return a.Losses[frameacct.LossDarkPort] + a.Losses[frameacct.LossLinkCut]
}

// Delivered returns frames handed to receivers (the ledger's
// WireDelivered), summed over shards.
func (c *Cluster) Delivered() uint64 {
	return c.FrameAcct().WireDelivered
}

// FrameAcct returns the fabric-wide frame-lifecycle ledger: the sum of
// every shard Net's Acct. Per-Net ledgers of a sharded fabric do not
// balance alone (a cross-shard frame launches on one Net and arrives on
// another); the sum satisfies the conservation invariant at any parked
// instant — see frameacct.Acct.Violations.
func (c *Cluster) FrameAcct() frameacct.Acct {
	var sum frameacct.Acct
	for _, net := range c.Nets {
		sum.Add(&net.Acct)
	}
	return sum
}
