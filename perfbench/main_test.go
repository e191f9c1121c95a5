package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/phys"
	"repro/internal/sim"
)

// TestMain lets the test binary stand in for the benchmark binary when
// realMain spawns its run processes.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestCommand runs the command end to end on the fastest workload in
// both modes: the last line must be a correct result holding exactly
// that mode's metrics.
func TestCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("runs scenarios for several seconds")
	}
	for trace, defs := range map[string][]metricDef{"0": endToEnd, "1": perLayer} {
		var stdout, stderr bytes.Buffer
		if code := realMain([]string{"--workload", "heal-churn", "--seed", "4", "--seconds", "1", "--trace", trace}, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 2 || len(res.Metrics) != len(defs) {
			t.Errorf("trace %s: result %+v", trace, res)
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s = %+v", trace, d.Name, m)
			}
		}
	}
	if code := realMain([]string{"--workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Error("unknown workload exits 0")
	}
}

func TestModuleFolding(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/sim.(*Kernel).siftDown":                         "sim",
		"repro/internal/phys.(*Port).Send":                              "phys",
		"repro/internal/insertion.(*Station).forward":                   "insertion",
		"repro/internal/core.(*Cluster).Run.func1":                      "core",
		"repro/internal/shardnet.(*Inproc).Exchange":                    "parsim",
		"repro/internal/parsim.(*Engine).RunUntil":                      "parsim",
		"repro/internal/dma.(*Engine).Write":                            "other",
		"repro/internal/sim.heapOf[go.shape.*repro/internal/phys.Port]": "sim",
		"type:.eq.repro/internal/phys.Frame":                            "phys",
		"runtime.mallocgc":                                              "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                  "runtime",
		"runtime/internal/atomic.Xadd":                                  "runtime",
		"sort.Slice":                                                    "other",
		"main.runScenario":                                              "other",
		"":                                                              "other",
	} {
		if got := moduleOf(packageOf(sym)); got != want {
			t.Errorf("moduleOf(packageOf(%q)) = %q, want %q", sym, got, want)
		}
	}
}

// TestFoldProfileSumsToTotal profiles a busy loop and checks that the
// fold assigns every sampled nanosecond to one of the table's modules.
func TestFoldProfileSumsToTotal(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	_ = x
	p, err := decodeProfile(gunzip(t, buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range p.samples {
		total += s.values[1]
	}
	folded := map[string]int64{}
	if err := foldProfile(buf.Bytes(), folded); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for m, ns := range folded {
		if !strings.Contains(" "+strings.Join(modules, " ")+" ", " "+m+" ") {
			t.Errorf("fold produced module %q outside the table", m)
		}
		sum += ns
	}
	if total == 0 || sum != total {
		t.Fatalf("folded %d ns, profile holds %d ns", sum, total)
	}
	if err := foldProfile([]byte("not a profile"), folded); err == nil {
		t.Error("foldProfile accepted garbage")
	}
}

func gunzip(t *testing.T, b []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricDefinitions checks every metric name and unit against the
// benchmark format, and that BENCHMARK.json declares exactly the
// metrics and workloads this program reports.
func TestMetricDefinitions(t *testing.T) {
	seen := map[string]bool{}
	prefixes := map[string]bool{"profile": true, "trace": true}
	for _, m := range modules {
		prefixes[m] = true
	}
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
				t.Errorf("bad metric %+v", d)
			}
			if seen[d.Name] {
				t.Errorf("metric %q defined twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	for _, d := range perLayer {
		if mod, _, _ := strings.Cut(d.Name, "."); !prefixes[mod] {
			t.Errorf("per-layer metric %q is not prefixed by a module", d.Name)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	var e2e []metricDef
	setupBound := 0.0
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range spec.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s: bound %v exceeds setup_s's %v", m.Name, m.Bound, setupBound)
		}
	}
	if !equalDefs(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v differs from program %v", e2e, endToEnd)
	}
	if !equalDefs(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v differs from program %v", spec.PerLayer, perLayer)
	}
}

func equalDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tiny is a sub-second workload: a 6-node fabric whose 2-shard
// partition the parallel engine supports, one switch fail/restore and a
// pub-sub stream.
func tiny(shards int) workload {
	return workload{name: "tiny", shards: shards, build: func(seed uint64) core.Scenario {
		topo := phys.Sharded(2, 3, 1, 50)
		return core.Scenario{
			Opts: core.Options{Fabric: &topo, Seed: seed},
			Plan: core.Plan{core.FailSwitch(1*sim.Millisecond, 1), core.RestoreSwitch(3*sim.Millisecond, 1)},
			Loads: []core.Load{&core.PubSubLoad{Publisher: 0, Topic: 1, Every: 50 * sim.Microsecond,
				Subscribers: []int{1, 2}}},
			For: 5 * sim.Millisecond,
		}
	}}
}

// TestObserversChangeNoReportByte runs the same scenario under every
// mode and engine: the traced and probe observers must leave the report
// byte-identical, and the sharded report must equal the serial one.
func TestObserversChangeNoReportByte(t *testing.T) {
	base := runScenario(tiny(1), 7, timed)
	if base.failed() {
		t.Fatalf("timed run failed: %s %v", base.Err, base.Problems)
	}
	for _, c := range []struct {
		shards int
		m      mode
	}{{1, traced}, {1, probe}, {2, timed}, {2, traced}, {2, probe}} {
		r := runScenario(tiny(c.shards), 7, c.m)
		checkSame(r, base.Report, "serial timed run")
		if r.failed() {
			t.Errorf("%d shards, %s: %s %v", c.shards, c.m, r.Err, r.Problems)
		}
		if c.m == probe && (r.BootHealNS <= 0 || r.LatencyP50NS <= 0 || r.LatencyP99NS < r.LatencyP50NS) {
			t.Errorf("%d shards, probe: boot heal %d, latency p50 %d p99 %d", c.shards, r.BootHealNS, r.LatencyP50NS, r.LatencyP99NS)
		}
		if c.m == traced && c.shards == 1 && r.PendingMax <= 0 {
			t.Error("traced serial run sampled no queue depth")
		}
	}
}

// TestDoctoredReportsFail checks that a run counts as failed when its
// report breaks an output check or its bytes differ from the reference.
func TestDoctoredReportsFail(t *testing.T) {
	serial := runScenario(tiny(1), 3, timed)
	sharded := runScenario(tiny(2), 3, timed)
	if serial.failed() || sharded.failed() {
		t.Fatalf("clean runs failed: %v %v", serial.Problems, sharded.Problems)
	}
	var rep core.Report
	if err := json.Unmarshal([]byte(serial.Report), &rep); err != nil {
		t.Fatal(err)
	}
	if p := checkReport(&rep, nil); len(p) != 0 {
		t.Fatalf("clean report fails checks: %v", p)
	}

	unconserved := rep
	frames := *rep.Frames
	frames.Conserved = false
	unconserved.Frames = &frames
	dropped := rep
	dropped.Drops = 1
	unhealed := rep
	unhealed.Healed = false
	for name, c := range map[string]struct {
		rep        *core.Report
		violations []string
	}{
		"unconserved ledger": {&unconserved, nil},
		"congestion drop":    {&dropped, nil},
		"not healed":         {&unhealed, nil},
		"invariant":          {&rep, []string{"node 3 offline"}},
	} {
		if p := checkReport(c.rep, c.violations); len(p) == 0 {
			t.Errorf("%s: report passes checks", name)
		}
	}

	// Shard bytes: the clean sharded report equals the serial one; a
	// doctored one is a failed run.
	checkReference([]*run{sharded}, serial, "tiny serial")
	doctored := *sharded
	doctored.Problems = nil
	doctored.Report = strings.Replace(sharded.Report, `"healed": true`, `"healed": false`, 1)
	checkReference([]*run{&doctored}, serial, "tiny serial")
	if res := tally([]*run{sharded, &doctored, serial}); res.Attempted != 3 || res.Failed != 1 || res.Correct {
		t.Errorf("tally = %+v, want 3 attempted, 1 failed, not correct", res)
	}
	// A failed reference fails every run checked against it.
	broken := &run{Err: "boom"}
	clean := *sharded
	clean.Problems = nil
	checkReference([]*run{&clean}, broken, "broken")
	if !clean.failed() {
		t.Error("run checked against a failed reference passes")
	}
}

func TestEndToEndValues(t *testing.T) {
	probeRun := runScenario(tiny(1), 5, probe)
	if probeRun.failed() {
		t.Fatal(probeRun.Err, probeRun.Problems)
	}
	probeRun.report = new(core.Report)
	if err := json.Unmarshal([]byte(probeRun.Report), probeRun.report); err != nil {
		t.Fatal(err)
	}
	runs := []*run{
		{Mode: timed, NewS: 0.1, BootS: 0.9, RunS: 2, CPUS: 2, AllocBytes: 3 << 20, PeakLiveHeapBytes: 10 << 20},
		{Mode: timed, NewS: 0.1, BootS: 1.1, RunS: 4, CPUS: 4, AllocBytes: 3 << 20, PeakLiveHeapBytes: 12 << 20},
		{Mode: timed, Err: "boom"},
	}
	v := endToEndValues(runs, probeRun)
	for name, want := range map[string]float64{"setup_s": 1.1, "run_s": 3, "cpu_s": 3, "alloc_mb": 3, "peak_heap_mb": 11} {
		if d := v[name] - want; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", name, v[name], want)
		}
	}
	for _, d := range endToEnd {
		if d.Name != "pass_frac" && v[d.Name] <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v[d.Name])
		}
	}
}
