package core

import (
	"fmt"

	"repro/internal/parsim"
	"repro/internal/phys"
	"repro/internal/sim"
)

// engine abstracts driver-level time control so the Scenario/Cluster
// API is identical over the serial kernel and the parallel sharded
// engine. RunUntil is inclusive and leaves the clock exactly on its
// deadline; ScheduleAt runs fn at t before every model event at t,
// same-instant calls in installation order (the contract plan events
// rely on).
type engine interface {
	Now() sim.Time
	RunUntil(t sim.Time) sim.Time
	ScheduleAt(t sim.Time, fn func())
}

// serialEngine drives the single kernel of a serial cluster.
type serialEngine struct{ k *sim.Kernel }

func (s serialEngine) Now() sim.Time                { return s.k.Now() }
func (s serialEngine) RunUntil(t sim.Time) sim.Time { return s.k.RunUntil(t) }
func (s serialEngine) ScheduleAt(t sim.Time, fn func()) {
	// The priority key is load-bearing: the parallel engine fires
	// actions at a window fence, before ANY model event at the same
	// instant, so the serial twin must sort them the same way. Model
	// events carry priT ≥ 0 (their transmit/schedule time); priT = -1
	// puts actions ahead of all of them at the shared instant, with
	// installation order (seq) breaking action-vs-action ties exactly
	// like the fence's schedule order does.
	s.k.AtPri(t, -1, 0, fn)
}

// planParallel is the one validation path of the parallel engine:
// filled options with Shards > 1 either yield the topology, shard
// assignment and lookahead newParallel builds from, or an error naming
// the knob at fault. BER injection is refused (its fault stream is a
// single shared RNG, which shards cannot consume deterministically),
// as is a topology that does not validate (the error names the
// topology), a shard count the switches cannot cover, or a partition
// with no positive lookahead.
func planParallel(o Options) (phys.Topology, *phys.Assignment, sim.Time, error) {
	topo := o.topology()
	if o.DeepPHY && o.BER > 0 {
		return topo, nil, 0, fmt.Errorf("core: Options.BER is not supported with Shards > 1 (the symbol-error RNG is a single stream shards cannot share deterministically)")
	}
	if err := topo.Validate(); err != nil {
		return topo, nil, 0, err
	}
	assign, err := phys.AssignShards(&topo, o.Shards)
	if err != nil {
		return topo, nil, 0, fmt.Errorf("core: Options.Shards = %d: %w", o.Shards, err)
	}
	lookahead, err := phys.Lookahead(&topo, assign)
	if err != nil {
		return topo, nil, 0, fmt.Errorf("core: Options.Shards = %d: %w", o.Shards, err)
	}
	return topo, assign, lookahead, nil
}

// ValidateParallel reports whether the options can run on the parallel
// sharded engine (see planParallel). It is a no-op for serial options.
func (o Options) ValidateParallel() error {
	o.fill()
	if o.Shards <= 1 {
		return nil
	}
	_, _, _, err := planParallel(o)
	return err
}

// newParallel assembles a cluster over the parallel sharded engine:
// one kernel and one phys.Net per shard, the fabric split by
// phys.AssignShards, every node built on its shard's kernel, and a
// parsim.Engine coordinating lookahead windows and barrier exchange.
// Misconfigured options panic with ValidateParallel's error, mirroring
// New; Scenario.Run surfaces the same error before reaching here.
func newParallel(opts Options) *Cluster {
	topo, assign, lookahead, err := planParallel(opts)
	if err != nil {
		panic(err)
	}
	c := &Cluster{Opts: opts}
	kernels := make([]*sim.Kernel, opts.Shards)
	nets := make([]*phys.Net, opts.Shards)
	for i := range kernels {
		// Every shard derives its seed from the run seed; the streams
		// are unused by the sharded model (see planParallel's BER gate)
		// but kept distinct for any future per-shard noise.
		kernels[i] = sim.NewKernel(opts.Seed + uint64(i)<<32)
		nets[i] = phys.NewNet(kernels[i])
		nets[i].DeepPHY = opts.DeepPHY
	}
	var ph *phys.Cluster
	applyRoute := func(at sim.Time, op phys.RouteOp) {
		// A zero timestamp is the historical apply-on-receipt write.
		// A timestamped write lands at its exact instant on the owning
		// shard's kernel — the same instant the serial engine applies
		// it — ahead of any model event there (priority -1, like plan
		// actions). Program's flight arithmetic guarantees at is still
		// in the owning kernel's future at the barrier.
		if at == 0 {
			op.Apply(ph)
			return
		}
		k := kernels[assign.SwitchShard[op.Switch]]
		if at <= k.Now() {
			op.Apply(ph)
			return
		}
		k.AtPri(at, -1, 0, func() { op.Apply(ph) })
	}
	eng, err := parsim.New(kernels, nets, lookahead, applyRoute)
	if err != nil {
		panic(err)
	}
	ph, err = phys.BuildFabricSharded(nets, topo, assign)
	if err != nil {
		eng.Shutdown()
		panic(err)
	}
	ph.RouteSink = eng.DeferRoute
	if opts.Telemetry != nil {
		// Wall-clock plane only: the recorder observes window/run/barrier
		// spans and changes neither simulation behavior nor Report bytes.
		eng.SetRecorder(opts.Telemetry)
	}
	c.Phys = ph
	c.Net = nets[0]
	c.Nets = nets
	c.Assign = assign
	c.par = eng
	c.eng = eng
	c.buildNodes(func(n int) *sim.Kernel { return kernels[assign.NodeShard[n]] })
	return c
}

// EventsFired returns the total number of simulation events executed,
// summed over every shard's kernel (one kernel on the serial engine).
func (c *Cluster) EventsFired() uint64 {
	var n uint64
	seen := map[*sim.Kernel]bool{}
	for _, nd := range c.Nodes {
		if !seen[nd.K] {
			seen[nd.K] = true
			n += nd.K.Fired
		}
	}
	return n
}

// ParStats returns the parallel engine's window/barrier statistics
// (fabric-wide sums), or nil on the serial engine.
func (c *Cluster) ParStats() *parsim.Stats {
	if c.par == nil {
		return nil
	}
	st := c.par.Stats
	return &st
}

// ShardParStats returns the deterministic per-shard telemetry plane —
// one parsim.ShardStat per shard — or nil on the serial engine. Safe
// whenever the driver may observe the simulation (shards parked).
func (c *Cluster) ShardParStats() []parsim.ShardStat {
	if c.par == nil {
		return nil
	}
	return c.par.ShardStats()
}

// OnBarrier installs fn as an observer of the parallel engine's
// barriers, chained before any previously installed observer; it
// reports false on the serial engine. fn runs on the driver goroutine
// with all kernels parked on at; frames/routes are the barrier drain's
// batch sizes and action marks fences forced by coordinator work.
// Observing is behavior-neutral — fn must not mutate model state.
func (c *Cluster) OnBarrier(fn func(at sim.Time, frames, routes int, action bool)) bool {
	if c.par == nil {
		return false
	}
	prev := c.par.OnFence
	c.par.OnFence = func(at sim.Time, frames, routes int, action bool) {
		fn(at, frames, routes, action)
		if prev != nil {
			prev(at, frames, routes, action)
		}
	}
	return true
}

// Lookahead returns the parallel engine's window bound (0 on the
// serial engine).
func (c *Cluster) Lookahead() sim.Time {
	if c.par == nil {
		return 0
	}
	return c.par.Lookahead()
}
