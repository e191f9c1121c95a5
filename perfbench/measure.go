package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/micropacket"
	"repro/internal/rostering"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// pendingStep is the virtual-time period at which a traced serial run
// samples the event-queue depth.
const pendingStep = 10 * sim.Microsecond

// mode is what a run observes besides its report.
type mode string

const (
	// timed runs carry no observers: they give the host-plane
	// end-to-end metrics.
	timed mode = "timed"
	// traced runs carry a CPU profile, a telemetry.Recorder on the
	// parallel engine and a queue-depth sampler on the serial one:
	// they give the per-layer host times.
	traced mode = "traced"
	// probe runs log roster adoptions and every pub-sub delivery's
	// latency: they give the simulated-plane metrics the report alone
	// does not hold.
	probe mode = "probe"
)

// run is one scenario execution in its own process: the report, the
// host-plane timings taken around the calls into core, and what the
// run's mode observed. The child process fills it and prints it as
// JSON.
type run struct {
	Mode mode   `json:"mode"`
	Err  string `json:"err,omitempty"`
	// Problems lists every output check the run failed.
	Problems []string `json:"problems,omitempty"`
	// Report is the report's JSON bytes, exactly as core renders them.
	Report string `json:"report,omitempty"`

	NewS  float64 `json:"new_s"`  // host seconds in core.New
	BootS float64 `json:"boot_s"` // host seconds in Cluster.Boot
	RunS  float64 `json:"run_s"`  // host seconds from online to the returned Report
	CPUS  float64 `json:"cpu_s"`  // process CPU seconds over the scenario

	AllocBytes uint64 `json:"alloc_bytes"`
	// PeakLiveHeapBytes is the largest live heap any GC cycle during
	// the scenario marked.
	PeakLiveHeapBytes uint64             `json:"peak_live_heap_bytes"`
	Mallocs           uint64             `json:"mallocs"`
	BootEvents        uint64             `json:"boot_events"`
	Events            uint64             `json:"events"`
	Counters          map[string]float64 `json:"counters,omitempty"`

	// Traced runs. PendingMax is the deepest event queue seen by the
	// serial sampler; the Par fields decompose the parallel engine's
	// wall timeline; CPUNS is the CPU profile folded by module.
	PendingMax      int              `json:"pending_max,omitempty"`
	ParBusyFrac     float64          `json:"par_busy_frac,omitempty"`
	ParBarrierWaitS float64          `json:"par_barrier_wait_s,omitempty"`
	ParExchangeS    float64          `json:"par_exchange_s,omitempty"`
	CPUNS           map[string]int64 `json:"cpu_ns,omitempty"`

	// Probe runs. BootHealNS is the boot's ring-formation window (the
	// last roster adoption at or before the cluster came online);
	// LatencyP50NS and LatencyP99NS are over every pub-sub delivery.
	BootHealNS   int64 `json:"boot_heal_ns,omitempty"`
	LatencyP50NS int64 `json:"latency_p50_ns,omitempty"`
	LatencyP99NS int64 `json:"latency_p99_ns,omitempty"`

	// PeakRSSBytes is the process's resident high-water mark after the
	// scenario (0 where the kernel does not report it).
	PeakRSSBytes uint64 `json:"peak_rss_bytes"`

	report *core.Report // parsed Report
}

func (r *run) setupS() float64 { return r.NewS + r.BootS }

// failed reports whether the run errored or failed an output check.
func (r *run) failed() bool { return r.Err != "" || len(r.Problems) > 0 }

// spawn runs w's scenario for seed once in a child process (this same
// binary with -child), waits for it and returns its record. The child
// is killed, and the run fails, if ctx ends first.
func spawn(ctx context.Context, w workload, seed uint64, m mode) *run {
	r := &run{Mode: m}
	exe, err := os.Executable()
	if err != nil {
		r.Err = err.Error()
		return r
	}
	cmd := exec.CommandContext(ctx, exe, "-child", string(m), "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		r.Err = fmt.Sprintf("run process: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
		return r
	}
	if err := json.Unmarshal(out, r); err != nil {
		r.Err = fmt.Sprintf("run process output: %v", err)
		return r
	}
	if r.Err == "" {
		r.report = new(core.Report)
		if err := json.Unmarshal([]byte(r.Report), r.report); err != nil {
			r.Err = fmt.Sprintf("report: %v", err)
		}
	}
	return r
}

// childRun is the -child side of spawn: one scenario, inside a CPU
// profile when traced.
func childRun(w workload, seed uint64, m mode) *run {
	if m != traced {
		return runScenario(w, seed, m)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return &run{Mode: m, Err: fmt.Sprintf("start cpu profile: %v", err)}
	}
	r := runScenario(w, seed, m)
	pprof.StopCPUProfile()
	r.CPUNS = map[string]int64{}
	if err := foldProfile(prof.Bytes(), r.CPUNS); err != nil && r.Err == "" {
		r.Err = err.Error()
	}
	return r
}

// runScenario builds w's scenario for seed and runs it in this process
// with the observers of mode m.
func runScenario(w workload, seed uint64, m mode) *run {
	sc := w.build(seed)
	sc.Opts.Shards = w.shards
	var rec *telemetry.Recorder
	if m == traced && w.shards > 1 {
		rec = telemetry.NewRecorder(telemetry.Wall)
		sc.Opts.Telemetry = rec
	}

	r := &run{Mode: m}
	var cl *core.Cluster
	var obs *probeLog
	var t0, tNew, tBoot time.Time
	sc.OnCluster = func(c *core.Cluster) {
		tNew = time.Now()
		cl = c
		switch {
		case m == probe:
			obs = observe(c, sc.Loads)
		case m == traced && c.K != nil:
			// The sampler's own pending tick is not counted.
			c.Every(pendingStep, func() bool {
				r.PendingMax = max(r.PendingMax, c.K.Pending()-1)
				return true
			})
		}
	}
	sc.OnBoot = func(c *core.Cluster) {
		tBoot = time.Now()
		r.BootEvents = c.EventsFired()
	}

	heap := watchLiveHeap()
	alloc0, mallocs0 := heapAllocs()
	cpu0 := processCPU()
	t0 = time.Now()
	rep, err := sc.Run()
	tEnd := time.Now()
	r.CPUS = processCPU() - cpu0
	alloc1, mallocs1 := heapAllocs()
	r.AllocBytes, r.Mallocs = alloc1-alloc0, mallocs1-mallocs0
	r.PeakLiveHeapBytes = heap.stop()
	r.PeakRSSBytes = peakRSS()
	if err != nil {
		r.Err = err.Error()
		return r
	}
	r.NewS = tNew.Sub(t0).Seconds()
	r.BootS = tBoot.Sub(tNew).Seconds()
	r.RunS = tEnd.Sub(tBoot).Seconds()
	r.Report = string(rep.JSON())
	r.Events = cl.EventsFired()
	r.Problems = checkReport(rep, cl.InvariantViolations())
	r.Counters = layerCounters(cl, rep)
	if rec != nil {
		d := telemetry.Decompose(rec.Spans())
		r.ParBusyFrac = d.BusyFrac()
		r.ParBarrierWaitS = float64(d.WindowNS*int64(d.Shards)-d.RunNS) / 1e9
		r.ParExchangeS = float64(d.ExchangeNS) / 1e9
	}
	if obs != nil {
		r.BootHealNS = obs.bootHeal(rep.BootNS)
		r.LatencyP50NS, r.LatencyP99NS = obs.latencies()
	}
	return r
}

// probeLog is what a probe run observes: per-node logs, each written
// only from its node's kernel, so the parallel engine's shards never
// share one.
type probeLog struct {
	adopts  [][]sim.Time
	latency [][]int64
}

// observe chains a roster-adoption hook onto every node and adds a
// latency-logging subscription beside every pub-sub load's own. A
// subscription only demultiplexes deliveries the node already
// receives, so it changes no traffic and no report byte.
func observe(c *core.Cluster, loads []core.Load) *probeLog {
	o := &probeLog{adopts: make([][]sim.Time, len(c.Nodes)), latency: make([][]int64, len(c.Nodes))}
	for i, nd := range c.Nodes {
		prev := nd.OnRoster
		nd.OnRoster = func(ro *rostering.Roster) {
			o.adopts[i] = append(o.adopts[i], nd.K.Now())
			if prev != nil {
				prev(ro)
			}
		}
	}
	for _, l := range loads {
		ps, ok := l.(*core.PubSubLoad)
		if !ok {
			continue
		}
		subs := ps.Subscribers
		if subs == nil {
			for i := range c.Nodes {
				if i != ps.Publisher {
					subs = append(subs, i)
				}
			}
		}
		for _, n := range subs {
			k := c.Nodes[n].K
			// Every pub-sub message starts with its 8-byte sequence
			// number and the 8-byte virtual time it was published.
			c.Services[n].Sub.Subscribe(ps.Topic, func(_ micropacket.NodeID, data []byte) {
				if len(data) >= 16 {
					o.latency[n] = append(o.latency[n], int64(k.Now())-int64(binary.LittleEndian.Uint64(data[8:])))
				}
			})
		}
	}
	return o
}

// bootHeal is the last roster adoption at or before bootNS.
func (o *probeLog) bootHeal(bootNS int64) int64 {
	var last int64
	for _, node := range o.adopts {
		for _, at := range node {
			if int64(at) <= bootNS {
				last = max(last, int64(at))
			}
		}
	}
	return last
}

// latencies returns the median and 99th percentile (nearest rank) of
// every logged delivery latency.
func (o *probeLog) latencies() (p50, p99 int64) {
	var all []int64
	for _, l := range o.latency {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return 0, 0
	}
	slices.Sort(all)
	rank := func(q float64) int64 { return all[int(math.Ceil(q*float64(len(all))))-1] }
	return rank(0.50), rank(0.99)
}

// checkReport returns the output checks a finished run fails: the frame
// ledger must conserve, the cluster must end healed with no congestion
// drops, and the roster invariants must hold.
func checkReport(rep *core.Report, violations []string) []string {
	var out []string
	if rep.Frames == nil || !rep.Frames.Conserved {
		out = append(out, "frame_accounting ledger not conserved")
	}
	if !rep.Healed {
		out = append(out, "cluster not healed at end of run")
	}
	if rep.Drops != 0 {
		out = append(out, fmt.Sprintf("%d congestion drops", rep.Drops))
	}
	for _, v := range violations {
		out = append(out, "invariant: "+v)
	}
	return out
}

// checkSame marks r failed when its report bytes differ from want, the
// report of a run that must be identical (the same seed's earlier run,
// or the reference workload's run).
func checkSame(r *run, want string, what string) {
	if r.Err == "" && r.Report != want {
		r.Problems = append(r.Problems, "report differs from "+what)
	}
}

// layerCounters reads the per-layer work counters from a finished
// cluster. They are deterministic for a given scenario.
func layerCounters(c *core.Cluster, rep *core.Report) map[string]float64 {
	m := map[string]float64{
		"phys.delivered":          float64(c.Delivered()),
		"phys.lost":               float64(c.Lost()),
		"netcache.stale_replicas": 0,
		"parsim.windows":          0,
		"parsim.barriers":         0,
		"parsim.frames":           0,
	}
	for _, nd := range c.Nodes {
		m["insertion.inserted"] += float64(nd.Station.Inserted)
		m["insertion.forwarded"] += float64(nd.Station.Forwarded)
		m["insertion.refused"] += float64(nd.Station.Refused)
		m["insertion.unrouted"] += float64(nd.Station.Unrouted)
		m["rostering.adoptions"] += float64(nd.Agent.Adoptions)
		m["ampdk.heartbeats"] += float64(nd.HBSent)
		m["ampdk.refresh_bytes"] += float64(nd.RefreshedB)
		m["ampdk.refresh_reqs"] += float64(nd.RefreshReqs)
	}
	for _, s := range c.Services {
		m["ampdc.deliveries"] += float64(s.Sub.Delivered)
	}
	for _, l := range rep.Loads {
		m["netcache.stale_replicas"] += float64(l.StaleReplicas)
	}
	if st := c.ParStats(); st != nil {
		m["parsim.windows"] = float64(st.Windows)
		m["parsim.barriers"] = float64(st.Barriers)
		m["parsim.frames"] = float64(st.Frames)
	}
	return m
}

// healWindowsNS returns the run's simulated heal windows: the HealNS of
// every plan event that caused re-rostering. A plan that fires no such
// event leaves the boot's ring formation as the run's only heal.
func healWindowsNS(r *run) []int64 {
	var out []int64
	for _, e := range r.report.Events {
		if e.HealNS > 0 {
			out = append(out, e.HealNS)
		}
	}
	if len(out) == 0 {
		out = append(out, r.BootHealNS)
	}
	return out
}

// deliveryFrac is pub-sub deliveries over (messages sent × subscribers),
// summed over the run's pub-sub loads.
func deliveryFrac(rep *core.Report) float64 {
	var sent, delivered float64
	for _, l := range rep.Loads {
		if l.Kind != "pubsub" {
			continue
		}
		sent += float64(l.Sent) * float64(len(l.PerNode))
		delivered += float64(l.Delivered)
	}
	if sent == 0 {
		return 0
	}
	return delivered / sent
}

// maxLatencyNS is the worst publish-to-deliver latency over the run's
// pub-sub loads.
func maxLatencyNS(rep *core.Report) int64 {
	var m int64
	for _, l := range rep.Loads {
		if l.Kind == "pubsub" {
			m = max(m, l.MaxLatencyNS)
		}
	}
	return m
}

// liveHeapWatch tracks the live heap each GC cycle marks, read from a
// finalizer that re-arms itself once per cycle.
type liveHeapWatch struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

// watchLiveHeap starts tracking the peak live heap.
func watchLiveHeap() *liveHeapWatch {
	w := &liveHeapWatch{}
	w.arm()
	return w
}

func (w *liveHeapWatch) arm() {
	// A pointer-holding object: finalizers on tiny pointer-free
	// allocations may never run.
	sentinel := &struct{ _ *int }{}
	runtime.SetFinalizer(sentinel, func(any) {
		w.sample()
		if !w.stopped.Load() {
			w.arm()
		}
	})
}

func (w *liveHeapWatch) sample() {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	for v := s[0].Value.Uint64(); ; {
		old := w.peak.Load()
		if v <= old || w.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stop ends tracking and returns the peak, including the live heap
// marked by the last cycle before the call.
func (w *liveHeapWatch) stop() uint64 {
	w.stopped.Store(true)
	w.sample()
	return w.peak.Load()
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

// heapAllocs returns the cumulative heap bytes and objects allocated by
// the process.
func heapAllocs() (bytes, objects uint64) {
	metrics.Read(allocSamples)
	return allocSamples[0].Value.Uint64(), allocSamples[1].Value.Uint64()
}

// peakRSS returns the process's resident high-water mark (VmHWM). It
// is read from /proc/self/status rather than getrusage because Linux
// carries the parent's high-water mark into ru_maxrss across exec.
func peakRSS() uint64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0
			}
			return kb << 10
		}
	}
	return 0
}

// processCPU returns the process's user plus system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // not reachable on Linux with RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// median returns the median of xs (the mean of the middle two for an
// even count); xs is left unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
