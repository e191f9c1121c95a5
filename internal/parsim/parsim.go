// Package parsim is AmpNet's parallel sharded simulation engine: a
// conservative time-windowed discrete-event scheduler that runs the
// shards of a fabric on all cores without giving up byte-reproducible
// determinism.
//
// The fabric is partitioned by switch (phys.AssignShards): each shard
// owns its switches, their attached nodes, and every intra-shard link,
// all scheduled on a private sim.Kernel. Shards advance in lockstep
// lookahead windows: with L the minimum propagation delay of any
// cross-shard fiber (phys.Lookahead), an event at time t can influence
// another shard no earlier than t+L — one full cross-shard flight —
// so all shards may safely run a window of L in parallel.
//
// Cross-shard traffic never touches a foreign kernel mid-window.
// A port transmitting over a split link hands the frame to its shard's
// capture queue (phys.RemoteExchange) with its exact arrival time; at
// the window barrier the coordinator drains every queue in a canonical
// order — (arrival, transmit time, source shard, capture sequence) —
// and schedules each frame on the destination kernel at precisely the
// arrival time a serial run would have delivered it. Crossbar
// programming aimed at a remote switch (ring hops healing across
// trunks) is deferred the same way; the first frame that could need
// the route is always at least one cross-shard flight away, so the
// barrier application is invisible. The result is a parallel run whose
// Report is byte-identical to the serial engine's for the same seed.
//
// Driver-level work — plan events (faults/repairs), condition probes —
// runs in coordinator actions: single-threaded closures executed with
// every kernel parked on the same virtual instant, after all events
// before t and before any event at t. That is where the fabric's
// shared state (link light, switch crossbars, trunk views) may flip;
// between barriers it is read-only, which is what makes the mid-window
// reads of the rostering layer race-free.
//
// The barrier itself is in-process: one worker goroutine per shard,
// one target send and one done receive per granted window, per-shard
// capture queues appended only by their own shard and drained only by
// the coordinator, and no serialization anywhere. A shard that panics
// mid-window surfaces as an engine error naming it, never a hang.
package parsim

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sort"
	"sync"

	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Stats counts the engine's work — the fabric-wide sums of the
// deterministic telemetry plane (per-shard detail is ShardStats).
//
// Per-window counters, incremented once per granted parallel window:
// Windows. Advances counts dead-time clock hops onto a coordinator
// action's instant — windows that moved the clock without granting any
// shard execution.
//
// Per-barrier counters, incremented at every synchronization point:
// Barriers (one per window, plus one per action fence), and
// Frames/Routes, which accumulate each barrier drain's cross-shard
// frame and deferred crossbar-write batch sizes. Fences is the subset
// of barriers forced by coordinator actions.
//
// Actions counts executed coordinator closures; several same-instant
// actions share one fence, so Actions ≥ Fences on action-heavy runs.
type Stats struct {
	Windows  uint64
	Barriers uint64
	Frames   uint64
	Routes   uint64
	Actions  uint64
	Advances uint64
	Fences   uint64
}

// ShardStat is one shard's deterministic telemetry: virtual-plane
// quantities only (kernel fired counts sampled at barriers, capture
// counters), byte-reproducible for a given simulation.
type ShardStat struct {
	Shard       int
	Events      uint64         // kernel events executed on this shard
	Windows     uint64         // windows granted
	BusyWindows uint64         // windows in which the shard executed ≥1 event
	Frames      uint64         // cross-shard frames this shard captured
	Routes      uint64         // deferred crossbar writes this shard captured
	EvPerWindow telemetry.Hist // events-per-window occupancy histogram
}

// action is one coordinator closure, run at `at` with all shards
// parked on that instant. Same-instant actions keep registration
// order (the sort below is stable).
type action struct {
	at sim.Time
	fn func()
}

// frameRec is one captured cross-shard frame: the phys.Frame plus
// everything needed to inject it on the destination kernel in the
// canonical barrier order (arrival, transmit start, source shard,
// capture sequence).
type frameRec struct {
	SrcUID  uint32
	Dst     *phys.Port
	F       phys.Frame
	Link    *phys.Link
	Epoch   uint64
	Arrival sim.Time
	TxAt    sim.Time
	Src     int
	Seq     uint64
}

// routeRec is one barrier-deferred crossbar write and the virtual
// instant it lands. At == 0 applies on receipt, at the barrier; a
// positive At is scheduled on the owning shard's kernel at exactly
// that instant (see phys.Cluster.Program for why trunk-crossing writes
// are timestamped).
type routeRec struct {
	At sim.Time
	Op phys.RouteOp
}

// Engine coordinates the shard kernels of one parallel simulation.
// It is driven from a single goroutine (the scenario driver); shard
// context only ever runs inside RunUntil, behind grant.
type Engine struct {
	Kernels []*sim.Kernel
	Nets    []*phys.Net

	lookahead sim.Time
	now       sim.Time

	actions []action

	failed error

	Stats Stats

	// frames and routes are the per-shard capture queues: during a
	// window only shard i's own goroutine appends to frames[i] and
	// routes[i] (through the sanctioned RemoteFrame/DeferRoute paths),
	// so no locking is needed; the coordinator drains them at the
	// barrier. frameSeq is the per-barrier capture sequence.
	frames     [][]frameRec
	frameSeq   []uint64
	routes     [][]routeRec
	applyRoute func(at sim.Time, op phys.RouteOp)

	// collectFrames/collectRoutes are the reused barrier-exchange
	// buffers: collect concatenates into them instead of allocating a
	// fresh batch per barrier. drain consumes the batch (sort + deliver)
	// before the next collect, so reuse never aliases live data.
	collectFrames []frameRec
	collectRoutes []routeRec

	// Window hand-off: one target send and one done receive per worker
	// per window. Workers park between windows, so driver read phases
	// and single-core hosts cost nothing; on multicore the wakeups
	// overlap and the per-window barrier stays in the low microseconds
	// against window workloads hundreds of events deep.
	work   []chan sim.Time
	done   chan error
	closed sync.Once

	// det is the per-shard deterministic telemetry plane, sampled at
	// window barriers from virtual-plane quantities only.
	det []shardDet

	// rec is the wall-clock telemetry plane: nil (the default) records
	// nothing; when set, the coordinator stamps window/exchange/action
	// spans here and each shard worker stamps its own run spans into
	// its private buffer — the same single-writer discipline as the
	// capture queues, so recording takes no locks on the window hot
	// path. Wall readings never reach Stats, ShardStats, or any Report
	// field.
	rec *telemetry.Recorder

	// OnFence, if set, observes every barrier after its drain, with all
	// kernels parked on at: frames/routes are the batch sizes the drain
	// delivered, action marks fences forced by coordinator work (plan
	// events, driver fences) as opposed to plain window barriers. Purely
	// observational — the hook must not mutate model state.
	OnFence func(at sim.Time, frames, routes int, action bool)
}

// shardDet accumulates one shard's deterministic metrics.
type shardDet struct {
	events      uint64
	busyWindows uint64
	lastFired   uint64
	frames      uint64
	routes      uint64
	evPerWindow telemetry.Hist
}

// New builds an engine over one kernel+Net pair per shard, installing
// a capture queue as every Net's RemoteExchange. lookahead is the
// fabric's conservative window bound (phys.Lookahead); it must be
// positive. applyRoute applies a barrier-deferred crossbar write (see
// DeferRoute) at the barrier that drains it. With more than one shard
// New starts one worker goroutine per shard; call Shutdown when the
// simulation is done.
func New(kernels []*sim.Kernel, nets []*phys.Net, lookahead sim.Time, applyRoute func(at sim.Time, op phys.RouteOp)) (*Engine, error) {
	if len(kernels) != len(nets) || len(kernels) == 0 {
		return nil, fmt.Errorf("parsim: %d kernels vs %d nets", len(kernels), len(nets))
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("parsim: non-positive lookahead %v", lookahead)
	}
	e := &Engine{
		Kernels:    kernels,
		Nets:       nets,
		lookahead:  lookahead,
		frames:     make([][]frameRec, len(kernels)),
		frameSeq:   make([]uint64, len(kernels)),
		routes:     make([][]routeRec, len(kernels)),
		applyRoute: applyRoute,
		det:        make([]shardDet, len(kernels)),
	}
	for i, k := range kernels {
		e.det[i].lastFired = k.Fired
	}
	for i, n := range nets {
		n.Shard = i
		n.Remote = &capture{e: e, shard: i}
	}
	if len(kernels) > 1 {
		e.done = make(chan error, len(kernels))
		for i := range kernels {
			ch := make(chan sim.Time)
			e.work = append(e.work, ch)
			go e.worker(i, ch)
		}
	}
	return e, nil
}

// SetRecorder attaches the wall-clock span recorder (nil detaches).
// Call before the first RunUntil. Attaching a recorder changes no
// simulation behavior and no Report bytes — the equivalence battery
// pins that.
func (e *Engine) SetRecorder(r *telemetry.Recorder) {
	r.EnsureShards(len(e.Kernels))
	e.rec = r
}

// ShardStats returns the deterministic per-shard telemetry plane.
// Safe to call whenever the driver may observe the simulation (shards
// parked).
func (e *Engine) ShardStats() []ShardStat {
	out := make([]ShardStat, len(e.det))
	for i := range e.det {
		d := &e.det[i]
		out[i] = ShardStat{
			Shard:       i,
			Events:      d.events,
			Windows:     d.evPerWindow.N,
			BusyWindows: d.busyWindows,
			Frames:      d.frames,
			Routes:      d.routes,
			EvPerWindow: d.evPerWindow,
		}
	}
	return out
}

// Shutdown stops the shard workers. It is safe to call more than
// once; the engine must not be run afterwards.
func (e *Engine) Shutdown() {
	e.closed.Do(func() {
		for _, ch := range e.work {
			close(ch)
		}
	})
}

// Err returns the sticky engine failure, if any: a shard panic. Once
// set, RunUntil refuses to advance.
func (e *Engine) Err() error { return e.failed }

func (e *Engine) fail(err error) {
	if e.failed == nil && err != nil {
		e.failed = err
	}
}

// Now returns the engine's global virtual time (every kernel is at
// this instant whenever the driver can observe the simulation).
func (e *Engine) Now() sim.Time { return e.now }

// Lookahead returns the window bound the engine runs with.
func (e *Engine) Lookahead() sim.Time { return e.lookahead }

// ScheduleAt registers a coordinator action: fn runs single-threaded
// at virtual time t, after every event before t and before any model
// event at t, with all shard kernels parked on t. Actions at the same
// instant run in registration order and share one fence. Scheduling in
// the past panics, mirroring sim.Kernel.At.
func (e *Engine) ScheduleAt(t sim.Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("parsim: action at %v before now %v", t, e.now))
	}
	e.actions = append(e.actions, action{at: t, fn: fn})
	sort.SliceStable(e.actions, func(a, b int) bool { return e.actions[a].at < e.actions[b].at })
}

// capture is the per-shard phys.RemoteExchange: it appends cross-shard
// frames to the source shard's private queue. Only the shard's own
// worker appends during a window, so no locking is needed.
type capture struct {
	e     *Engine
	shard int
}

// RemoteFrame is the sanctioned frame-capture path (see the ampvet
// shardshare analyzer): the only place shard context may write engine
// state, besides DeferRoute.
func (x *capture) RemoteFrame(src, dst *phys.Port, f phys.Frame, link *phys.Link, epoch uint64, arrival sim.Time) {
	e := x.e
	e.frames[x.shard] = append(e.frames[x.shard], frameRec{
		SrcUID: src.UID(), Dst: dst, F: f, Link: link, Epoch: epoch,
		Arrival: arrival, TxAt: e.Kernels[x.shard].Now(),
		Src: x.shard, Seq: e.frameSeq[x.shard],
	})
	e.frameSeq[x.shard]++
}

// DeferRoute is the sanctioned route-capture path: a crossbar write
// from srcShard aimed at a remote switch, landing at virtual time at
// (0 = on receipt, at the barrier). Wire it to phys.Cluster.RouteSink;
// the barrier drain hands it to the engine's applyRoute.
func (e *Engine) DeferRoute(srcShard int, at sim.Time, op phys.RouteOp) {
	e.routes[srcShard] = append(e.routes[srcShard], routeRec{At: at, Op: op})
}

// worker runs shard i's kernel window by window.
func (e *Engine) worker(i int, ch chan sim.Time) {
	for target := range ch {
		e.done <- e.runShard(i, target)
	}
}

// runShard executes one shard's window, converting a model panic into
// an error that names the shard and window instead of tearing the
// process down (or, worse, stranding the other shards at the barrier).
func (e *Engine) runShard(i int, target sim.Time) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("parsim: shard %d panicked in window ending %v: %v\n%s", i, target, r, debug.Stack())
		}
	}()
	start := e.rec.Begin()
	e.Kernels[i].RunUntil(target)
	e.rec.Shard(i, telemetry.SpanRun, start, int64(target))
	return nil
}

// grant runs every shard to target and waits for all of them.
//
// Shards with no event due in the window are not woken: cross-shard
// work only ever arrives at barriers, so a shard whose next event lies
// beyond target provably executes nothing — its clock is advanced
// directly on the coordinator, skipping the worker round-trip. During
// a decoupled phase (traffic localized to a few shards) this removes
// two channel hops and a goroutine wakeup per idle shard per window;
// the skipped shard ends the window in the identical state (clock on
// target, nothing fired) a granted run would have left.
func (e *Engine) grant(target sim.Time) error {
	if len(e.work) == 0 {
		// Single shard: run directly; a panic propagates as it would
		// on the serial engine.
		start := e.rec.Begin()
		e.Kernels[0].RunUntil(target)
		e.rec.Shard(0, telemetry.SpanRun, start, int64(target))
		return nil
	}
	granted := 0
	for i, ch := range e.work {
		if nt, ok := e.Kernels[i].NextEventTime(); ok && nt <= target {
			ch <- target
			granted++
		} else {
			e.Kernels[i].AdvanceTo(target)
		}
	}
	var firstErr error
	for ; granted > 0; granted-- {
		if err := <-e.done; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// collect drains the capture queues: frames concatenated per source
// shard in capture order, routes in source-shard FIFO order. The
// per-shard capture sequence restarts at every collect: Seq is only a
// same-instant tie-break within one barrier's batch.
func (e *Engine) collect() ([]frameRec, []routeRec) {
	frames := e.collectFrames[:0]
	routes := e.collectRoutes[:0]
	for s := range e.frames {
		e.det[s].frames += uint64(len(e.frames[s]))
		e.det[s].routes += uint64(len(e.routes[s]))
		frames = append(frames, e.frames[s]...)
		routes = append(routes, e.routes[s]...)
		e.frames[s] = e.frames[s][:0]
		e.routes[s] = e.routes[s][:0]
		e.frameSeq[s] = 0
	}
	e.collectFrames, e.collectRoutes = frames, routes
	return frames, routes
}

// drain collects everything captured since the last barrier and
// delivers it: deferred crossbar writes (per source shard, FIFO), then
// cross-shard frames in the canonical (arrival, transmit time, source
// shard, sequence) order, each scheduled on its destination kernel at
// its exact arrival time. Runs single-threaded with all kernels
// parked. Returns the batch sizes for the barrier observer.
func (e *Engine) drain() (nframes, nroutes int) {
	frames, routes := e.collect()
	e.Stats.Routes += uint64(len(routes))
	e.Stats.Frames += uint64(len(frames))
	if len(frames) == 0 && len(routes) == 0 {
		// Nothing crossed this barrier — common during decoupled
		// phases; skip the sort and the delivery pass.
		return 0, 0
	}
	// Canonical batch order: arrival, then the wire key (transmit
	// start, sending-port identity by way of source shard and capture
	// sequence) — slotting each arrival into exactly the same
	// same-instant order the serial engine would have used.
	// slices.SortFunc, unlike sort.Slice, needs no reflection-based
	// swapper allocation per barrier.
	slices.SortFunc(frames, func(pa, pb frameRec) int {
		switch {
		case pa.Arrival != pb.Arrival:
			if pa.Arrival < pb.Arrival {
				return -1
			}
			return 1
		case pa.TxAt != pb.TxAt:
			if pa.TxAt < pb.TxAt {
				return -1
			}
			return 1
		case pa.Src != pb.Src:
			return pa.Src - pb.Src
		case pa.Seq != pb.Seq:
			if pa.Seq < pb.Seq {
				return -1
			}
			return 1
		}
		return 0
	})
	// Routes first (source-shard FIFO order), then frames, each
	// scheduled on its destination kernel at its exact arrival time
	// with the wire priority key (transmit start, sending-port
	// identity) that slots it into the same same-instant order the
	// serial engine would have used.
	for _, r := range routes {
		e.applyRoute(r.At, r.Op)
	}
	for i := range frames {
		pf := &frames[i]
		// Pooled, Timer-free scheduling on the destination shard — the
		// same path a local hop takes, so cross-shard injection costs
		// no allocations either.
		pf.Dst.Net().ScheduleDelivery(pf.Arrival, pf.TxAt, pf.SrcUID, pf.Dst, pf.F, pf.Link, pf.Epoch)
	}
	return len(frames), len(routes)
}

// runWindow executes all shards in parallel up to target (inclusive),
// then drains the barrier.
func (e *Engine) runWindow(target sim.Time) error {
	w0 := e.rec.Begin()
	if err := e.grant(target); err != nil {
		return err
	}
	e.Stats.Windows++
	e.Stats.Barriers++
	// Sample the deterministic plane: every kernel is parked on target,
	// so the fired deltas are the exact per-shard event counts of this
	// window regardless of host scheduling.
	for i, k := range e.Kernels {
		d := &e.det[i]
		delta := k.Fired - d.lastFired
		d.lastFired = k.Fired
		d.events += delta
		if delta > 0 {
			d.busyWindows++
		}
		d.evPerWindow.Observe(delta)
	}
	// One clock read ends the window span and starts the exchange span:
	// the two intervals are adjacent by construction, and the shared
	// read halves the coordinator's per-window clock cost.
	x0 := e.rec.Begin()
	e.rec.CoordSpan(telemetry.SpanWindow, w0, x0, int64(target))
	nf, nr := e.drain()
	// An empty drain returns without sorting or delivering; its span
	// would be zero-length noise, and skipping it saves a clock read on
	// every decoupled-phase window.
	if nf+nr > 0 {
		e.rec.Coord(telemetry.SpanExchange, x0, int64(target))
	}
	e.now = target
	if e.OnFence != nil {
		e.OnFence(target, nf, nr, false)
	}
	return nil
}

// nextEvent returns the earliest pending event time across all shards.
func (e *Engine) nextEvent() (sim.Time, bool) {
	min, any := sim.MaxTime, false
	for _, k := range e.Kernels {
		if t, ok := k.NextEventTime(); ok && t < min {
			min, any = t, true
		}
	}
	return min, any
}

// runActionsAtNow executes every action due at the current instant.
// Kernels must already be parked on e.now with no pending events
// before it. Actions may send cross-shard traffic (a rebooted node
// solicits immediately), so the barrier is drained afterwards.
func (e *Engine) runActionsAtNow() {
	if len(e.actions) == 0 || e.actions[0].at != e.now {
		return
	}
	a0 := e.rec.Begin()
	for len(e.actions) > 0 && e.actions[0].at == e.now {
		a := e.actions[0]
		e.actions = e.actions[1:]
		a.fn()
		e.Stats.Actions++
	}
	e.rec.Coord(telemetry.SpanAction, a0, int64(e.now))
	e.Stats.Fences++
	x0 := e.rec.Begin()
	nf, nr := e.drain()
	e.rec.Coord(telemetry.SpanExchange, x0, int64(e.now))
	e.Stats.Barriers++
	if e.OnFence != nil {
		e.OnFence(e.now, nf, nr, true)
	}
}

// RunUntil advances the whole simulation to deadline (inclusive),
// window by window, and leaves every shard kernel parked exactly on
// deadline — the same clock contract as sim.Kernel.RunUntil. The
// driver may freely read cross-shard state after it returns.
//
// A shard panic stops the run where it stands; the error is sticky and
// available from Err.
func (e *Engine) RunUntil(deadline sim.Time) sim.Time {
	if e.failed != nil || deadline < e.now {
		return e.now
	}
	for {
		e.runActionsAtNow()
		if e.now >= deadline {
			// RunUntil is inclusive: model events at the deadline
			// instant (including any the actions just scheduled) still
			// run, exactly as the serial kernel would.
			if m, any := e.nextEvent(); any && m <= deadline {
				if err := e.runWindow(deadline); err != nil {
					e.fail(err)
					return e.now
				}
			}
			break
		}
		// Stop one tick short of the next action so it can run with
		// events before its instant done and events at its instant
		// still pending.
		horizon := deadline
		if len(e.actions) > 0 && e.actions[0].at <= deadline {
			horizon = e.actions[0].at - 1
		}
		if horizon > e.now {
			m, any := e.nextEvent()
			var err error
			switch {
			case !any || m > horizon:
				// Dead time: nothing to execute before the horizon.
				err = e.runWindow(horizon)
			default:
				start := m
				if start < e.now {
					start = e.now
				}
				wEnd := horizon
				// Overflow-proof window clamp: compare the window span
				// (lookahead-1) against the distance to the horizon
				// instead of computing start+lookahead, which wraps for
				// the sim.MaxTime "fully decoupled" sentinel — and for
				// any near-MaxTime lookahead a sparse topology can
				// legitimately produce.
				if e.lookahead-1 < horizon-start {
					wEnd = start + e.lookahead - 1
				}
				if wEnd < e.now {
					wEnd = e.now
				}
				err = e.runWindow(wEnd)
			}
			if err != nil {
				e.fail(err)
				return e.now
			}
			continue
		}
		// horizon == e.now: the next action is one tick away. Realize
		// the current instant first (an earlier action may have
		// scheduled zero-delay work), then advance every kernel onto
		// the action's instant without executing anything there.
		if m, any := e.nextEvent(); any && m <= e.now {
			if err := e.runWindow(e.now); err != nil {
				e.fail(err)
				return e.now
			}
		}
		at := e.actions[0].at
		for _, k := range e.Kernels {
			k.AdvanceTo(at)
		}
		e.Stats.Advances++
		e.now = at
	}
	return e.now
}
