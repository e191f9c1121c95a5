// Command perfbench is the repository's benchmark. It runs one named
// AmpNet workload through core.Scenario.Run, repeatedly, for a fixed
// host-time budget, checks every run's output, and prints its metrics
// with their units. The last line of standard output is a JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"setup_s": {"value": 1.02, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end table; with -trace 1 a
// separate traced measurement fills the per-layer table instead. See
// README.md for the workloads and what each metric should move.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fabric96-serial --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"
)

// overrun is how far past its budget a measurement may run before its
// remaining run processes are killed, so a hung scenario fails the
// measurement within minutes instead of stalling it.
const overrun = 100 * time.Second

// defaultSeed is the seed the recorded numbers use (README.md also
// names a held-out seed kept out of every tuning run).
const defaultSeed = 1

// metricDef declares one reported metric; the tables below are the
// benchmark's definition and must match BENCHMARK.json.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is what a user of the simulator sees, from untraced runs.
// Host-plane values are medians over the runs; simulated-plane values
// ("sim" in the name) are deterministic for a seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_mb", "MiB", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
	{"pass_frac", "frac", "higher"},
	{"heal_sim_us_p50", "sim_us", "lower"},
	{"heal_sim_us_max", "sim_us", "lower"},
	{"msg_latency_sim_us_p50", "sim_us", "lower"},
	{"msg_latency_sim_us_p99", "sim_us", "lower"},
	{"delivery_frac", "frac", "higher"},
}

// perLayer is the traced run's table, prefixed by the module measured.
var perLayer = []metricDef{
	{"core.new_s", "s", "lower"},
	{"core.boot_s", "s", "lower"},
	{"core.boot_events", "count", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.pending_max", "count", "lower"},
	{"phys.delivered", "count", "higher"},
	{"phys.lost", "count", "lower"},
	{"insertion.inserted", "count", "higher"},
	{"insertion.forwarded", "count", "lower"},
	{"insertion.refused", "count", "lower"},
	{"insertion.unrouted", "count", "lower"},
	{"rostering.adoptions", "count", "lower"},
	{"ampdk.heartbeats", "count", "lower"},
	{"ampdk.refresh_bytes", "bytes", "lower"},
	{"ampdk.refresh_reqs", "count", "lower"},
	{"ampdc.deliveries", "count", "higher"},
	{"ampdc.msg_latency_sim_us_max", "sim_us", "lower"},
	{"netcache.stale_replicas", "count", "lower"},
	{"parsim.windows", "count", "lower"},
	{"parsim.barriers", "count", "lower"},
	{"parsim.frames", "count", "lower"},
	{"parsim.busy_frac", "frac", "higher"},
	{"parsim.barrier_wait_s", "s", "lower"},
	{"parsim.exchange_s", "s", "lower"},
	{"runtime.mallocs_per_event", "count", "lower"},
	{"runtime.peak_rss_mb", "MiB", "lower"},
	{"profile.cpu_s", "s", "lower"},
	{"trace.run_s", "s", "lower"},
	{"trace.untraced_run_s", "s", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

func init() {
	// One <module>.cpu_s row per profile fold target, "other" included.
	for _, m := range modules {
		perLayer = append(perLayer, metricDef{m + ".cpu_s", "s", "lower"})
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "host seconds to keep starting runs for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced measurement")
	child := fs.String("child", "", "internal: run the scenario once in this process, with observers timed, traced or probe, and print its record")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be ≥1 and -trace 0 or 1")
		return 2
	}
	if *child != "" {
		m := mode(*child)
		if m != timed && m != traced && m != probe {
			fmt.Fprintf(stderr, "perfbench: unknown -child mode %q\n", *child)
			return 2
		}
		if err := json.NewEncoder(stdout).Encode(childRun(w, *seed, m)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	runs, extra := measureRuns(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stderr)
	res := tally(append(runs, extra...))
	defs, v := perLayer, perLayerValues(runs)
	if *trace == 0 {
		defs, v = endToEnd, endToEndValues(runs, extra[0])
		v["pass_frac"] = float64(res.Attempted-res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(stdout, "perfbench %s seed=%d trace=%d runs=%d failed=%d\n", w.name, *seed, *trace, res.Attempted, res.Failed)
	for _, d := range defs {
		res.Metrics[d.Name] = metric{Value: v[d.Name], Unit: d.Unit}
		fmt.Fprintf(stdout, "  %-26s %16.6g %s\n", d.Name, v[d.Name], d.Unit)
	}
	js, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(js))
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// measureRuns starts runs of w for seed, one process each, until budget
// has passed. An end-to-end measurement makes timed runs, then one probe
// run for the simulated plane. A traced measurement alternates timed
// and traced runs, timed first, and makes at least one of each. Every
// report must equal the first run's, and a workload with a reference
// also runs the reference once and must equal it too. extra holds the
// probe and reference runs, which count as attempted but give no host
// times.
func measureRuns(w workload, seed uint64, budget time.Duration, tracing bool, log io.Writer) (runs, extra []*run) {
	deadline := time.Now().Add(budget)
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(overrun))
	defer cancel()
	var first *run
	for len(runs) == 0 || (tracing && len(runs) < 2) || time.Now().Before(deadline) {
		m := timed
		if tracing && len(runs)%2 == 1 {
			m = traced
		}
		r := spawnChecked(ctx, w, w.name, seed, m, first, log)
		if first == nil {
			first = r
		}
		runs = append(runs, r)
	}
	if !tracing {
		extra = append(extra, spawnChecked(ctx, w, w.name, seed, probe, first, log))
	}
	if w.reference != "" {
		refW, _ := workloadByName(w.reference)
		rr := spawnChecked(ctx, refW, refW.name+" (reference)", seed, timed, nil, log)
		checkReference(append(runs, extra...), rr, refW.name)
		extra = append(extra, rr)
	}
	return runs, extra
}

// checkReference marks every run failed whose report differs from ref's,
// the run of the reference workload name; all of them when ref itself
// failed.
func checkReference(runs []*run, ref *run, name string) {
	for _, r := range runs {
		if ref.failed() {
			r.Problems = append(r.Problems, "reference run "+name+" failed")
		} else {
			checkSame(r, ref.Report, name)
		}
	}
}

// tally counts attempted and failed runs into a result.
func tally(runs []*run) *result {
	res := &result{Metrics: map[string]metric{}}
	for _, r := range runs {
		res.Attempted++
		if r.failed() {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	return res
}

// spawnChecked spawns one run, checks its report against first's (the
// first run of this seed; nil for that run itself) and logs it.
func spawnChecked(ctx context.Context, w workload, label string, seed uint64, m mode, first *run, log io.Writer) *run {
	r := spawn(ctx, w, seed, m)
	if first != nil && first.Err == "" {
		checkSame(r, first.Report, "the first run of this seed")
	}
	logRun(log, label, r)
	return r
}

func logRun(log io.Writer, label string, r *run) {
	if r.Err != "" {
		fmt.Fprintf(log, "%s %s: error: %s\n", label, r.Mode, r.Err)
		return
	}
	fmt.Fprintf(log, "%s %s: setup %.3fs run %.3fs cpu %.3fs heap %.2fMiB rss %.1fMiB events %d\n",
		label, r.Mode, r.setupS(), r.RunS, r.CPUS, float64(r.PeakLiveHeapBytes)/(1<<20), float64(r.PeakRSSBytes)/(1<<20), r.Events)
	for _, p := range r.Problems {
		fmt.Fprintf(log, "%s %s: FAILED: %s\n", label, r.Mode, p)
	}
}

// endToEndValues computes the end-to-end table but pass_frac, which
// counts every run: host-plane medians over the timed runs that
// completed, and the simulated plane from the probe run (whose report
// equals every timed run's).
func endToEndValues(runs []*run, probeRun *run) map[string]float64 {
	var setup, runS, cpu, alloc, heap []float64
	for _, r := range runs {
		if r.Err != "" {
			continue
		}
		setup = append(setup, r.setupS())
		runS = append(runS, r.RunS)
		cpu = append(cpu, r.CPUS)
		alloc = append(alloc, float64(r.AllocBytes)/(1<<20))
		heap = append(heap, float64(r.PeakLiveHeapBytes)/(1<<20))
	}
	v := map[string]float64{
		"setup_s":      median(setup),
		"run_s":        median(runS),
		"cpu_s":        median(cpu),
		"alloc_mb":     median(alloc),
		"peak_heap_mb": median(heap),
	}
	if probeRun.Err != "" {
		return v
	}
	var heals []float64
	for _, h := range healWindowsNS(probeRun) {
		heals = append(heals, float64(h)/1e3)
	}
	v["heal_sim_us_p50"] = median(heals)
	v["heal_sim_us_max"] = slices.Max(heals)
	v["msg_latency_sim_us_p50"] = float64(probeRun.LatencyP50NS) / 1e3
	v["msg_latency_sim_us_p99"] = float64(probeRun.LatencyP99NS) / 1e3
	v["delivery_frac"] = deliveryFrac(probeRun.report)
	return v
}

// perLayerValues computes the per-layer table. Counters are
// deterministic and come from the first (untraced) run; host times,
// the profile and the engine timeline are medians or means over the
// traced runs, which carry the CPU profile and the observers.
func perLayerValues(runs []*run) map[string]float64 {
	v := map[string]float64{}
	first := runs[0]
	for k, x := range first.Counters {
		v[k] = x
	}
	v["core.boot_events"] = float64(first.BootEvents)
	if first.report != nil {
		v["ampdc.msg_latency_sim_us_max"] = float64(maxLatencyNS(first.report)) / 1e3
	}
	v["sim.events"] = float64(first.Events)

	var newS, bootS, nsPerEvent, tracedRun, timedRun, mallocs, rss, busy, wait, exch []float64
	cpuNS := map[string]int64{}
	nTraced := 0
	for _, r := range runs {
		if r.Err != "" || r.Events == 0 {
			continue
		}
		if r.Mode == timed {
			timedRun = append(timedRun, r.RunS)
			mallocs = append(mallocs, float64(r.Mallocs)/float64(r.Events))
			rss = append(rss, float64(r.PeakRSSBytes)/(1<<20))
			continue
		}
		nTraced++
		newS = append(newS, r.NewS)
		bootS = append(bootS, r.BootS)
		tracedRun = append(tracedRun, r.RunS)
		nsPerEvent = append(nsPerEvent, (r.setupS()+r.RunS)*1e9/float64(r.Events))
		busy = append(busy, r.ParBusyFrac)
		wait = append(wait, r.ParBarrierWaitS)
		exch = append(exch, r.ParExchangeS)
		v["sim.pending_max"] = max(v["sim.pending_max"], float64(r.PendingMax))
		for m, ns := range r.CPUNS {
			cpuNS[m] += ns
		}
	}
	v["core.new_s"] = median(newS)
	v["core.boot_s"] = median(bootS)
	v["sim.ns_per_event"] = median(nsPerEvent)
	v["runtime.mallocs_per_event"] = median(mallocs)
	v["runtime.peak_rss_mb"] = median(rss)
	v["parsim.busy_frac"] = median(busy)
	v["parsim.barrier_wait_s"] = median(wait)
	v["parsim.exchange_s"] = median(exch)
	v["trace.run_s"] = median(tracedRun)
	v["trace.untraced_run_s"] = median(timedRun)
	if v["trace.untraced_run_s"] > 0 {
		v["trace.overhead_ratio"] = v["trace.run_s"] / v["trace.untraced_run_s"]
	}
	if nTraced > 0 {
		var total int64
		for _, m := range modules {
			total += cpuNS[m]
			v[m+".cpu_s"] = float64(cpuNS[m]) / 1e9 / float64(nTraced)
		}
		v["profile.cpu_s"] = float64(total) / 1e9 / float64(nTraced)
	}
	return v
}
