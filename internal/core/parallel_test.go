package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/netcache"
	"repro/internal/phys"
	"repro/internal/sim"
)

// equivalenceFabrics are the five shapes of the serial/parallel
// equivalence battery.
func equivalenceFabrics() []phys.Topology {
	return []phys.Topology{
		phys.Uniform(8, 4, 50),
		phys.DualRing(6, 50),
		phys.Mesh(8, 4, 50),
		phys.Sharded(2, 4, 2, 50),
		phys.Sharded(4, 3, 1, 50),
	}
}

// equivalenceScenario is the common scenario of the battery: a fault
// plan spanning node crash/reboot and switch death/restore, a paced
// pub/sub stream, a Poisson pub/sub stream and cache churn.
func equivalenceScenario(topo *phys.Topology, seed uint64, shards int) Scenario {
	return Scenario{
		Name: "equivalence",
		Opts: Options{Fabric: topo, Seed: seed, Shards: shards, Regions: map[uint8]int{2: 1024}},
		Plan: Plan{
			CrashNode(4*sim.Millisecond, topo.Nodes-1),
			FailSwitch(8*sim.Millisecond, topo.Switches-1),
			RebootNode(14*sim.Millisecond, topo.Nodes-1),
			RestoreSwitch(18*sim.Millisecond, topo.Switches-1),
		},
		Loads: []Load{
			&PubSubLoad{Publisher: 0, Topic: 1, Every: 50 * sim.Microsecond},
			&PubSubLoad{Name: "poisson", Publisher: 1, Topic: 2, Every: 80 * sim.Microsecond, Poisson: true},
			&CacheChurn{Writer: 2, Record: netcache.Record{Region: 2, Off: 0, Size: 64}, Every: 70 * sim.Microsecond},
		},
		For: 25 * sim.Millisecond,
	}
}

// TestEquivalenceBattery is the serial/parallel determinism property:
// for every fabric shape × seed, a sharded run's Report JSON is
// byte-identical to the serial run's — the defining guarantee of
// internal/parsim. CI runs it under -race, which also exercises the
// engine's barrier discipline (shared fabric state must only change
// while the shards are parked).
func TestEquivalenceBattery(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, topo := range equivalenceFabrics() {
		topo := topo
		t.Run(topo.Name+fmt.Sprintf("%dx%d", topo.Nodes, topo.Switches), func(t *testing.T) {
			for _, seed := range seeds {
				serialRep, err := equivalenceScenario(&topo, seed, 1).Run()
				if err != nil {
					t.Fatalf("serial seed=%d: %v", seed, err)
				}
				serial := serialRep.JSON()
				for _, shards := range []int{2, 4} {
					if shards > topo.Switches {
						continue
					}
					parRep, err := equivalenceScenario(&topo, seed, shards).Run()
					if err != nil {
						t.Fatalf("seed=%d shards=%d: %v", seed, shards, err)
					}
					if par := parRep.JSON(); !bytes.Equal(serial, par) {
						t.Errorf("seed=%d shards=%d: report diverged from serial\n--- serial ---\n%s--- shards=%d ---\n%s",
							seed, shards, serial, shards, par)
						return
					}
				}
			}
		})
	}
}

// TestOnGridFaultEquivalence pins the same-instant plan-action ordering
// contract: a fault scheduled at the exact instant of a model event
// (here, the fleet-wide keepalive tick, armed before boot) must still
// produce byte-identical serial and parallel reports. The parallel
// engine fires plan actions at a window fence before any model event at
// that instant; the serial engine must sort them the same way (see
// serialEngine.ScheduleAction). Historically scenarios dodged this by
// skewing fault instants off the timer grid; this test aims dead-on.
func TestOnGridFaultEquivalence(t *testing.T) {
	topo := phys.Sharded(2, 4, 2, 50)
	const keepalive = 2 * sim.Millisecond
	build := func(shards int, plan Plan) Scenario {
		return Scenario{
			Name: "ongrid",
			Opts: Options{Fabric: &topo, Seed: 7, Shards: shards,
				KeepaliveInterval: keepalive},
			Plan:  plan,
			Loads: []Load{&PubSubLoad{Publisher: 0, Topic: 1, Every: 50 * sim.Microsecond}},
			For:   12 * sim.Millisecond,
		}
	}
	// Probe run: learn when boot ends, so the fault offset can land the
	// absolute fault instant exactly on the next keepalive grid point
	// (keepalive loops are armed at t=0, before boot completes).
	probe, err := build(1, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	boot := sim.Time(probe.BootNS)
	crashAt := keepalive - boot%keepalive // boot + crashAt ≡ 0 mod keepalive
	plan := Plan{
		CrashNode(crashAt, topo.Nodes-1),
		RebootNode(crashAt+2*keepalive, topo.Nodes-1),
	}
	serialRep, err := build(1, plan).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Time(serialRep.BootNS); got != boot {
		t.Fatalf("probe boot %v vs plan-run boot %v: fault no longer on-grid", boot, got)
	}
	parRep, err := build(2, plan).Run()
	if err != nil {
		t.Fatal(err)
	}
	if serial, par := serialRep.JSON(), parRep.JSON(); !bytes.Equal(serial, par) {
		t.Errorf("on-grid fault at boot+%v diverged serial vs 2 shards\n--- serial ---\n%s--- parallel ---\n%s",
			crashAt, serial, par)
	}
}

// TestDecoupledPartitionRuns pins the sim.MaxTime lookahead sentinel:
// a zero-trunk fabric whose shards share nothing gives
// phys.Lookahead = sim.MaxTime ("any window is safe"), and the engine's
// window arithmetic (start + lookahead) must clamp instead of
// overflowing sim.Time. The run must terminate, report the sentinel,
// and still be byte-identical to serial.
func TestDecoupledPartitionRuns(t *testing.T) {
	// Two isolated 3-node islands: no trunks, nodes attached only to
	// their island's switch. Nothing ever crosses shards.
	topo := phys.Topology{
		Name: "islands", Nodes: 6, Switches: 2, FiberM: 50,
		Attached: func(n, s int) bool { return n/3 == s },
	}
	run := func(shards int) *Report {
		rep, err := Scenario{
			Name: "decoupled",
			Opts: Options{Fabric: &topo, Seed: 5, Shards: shards},
			For:  8 * sim.Millisecond,
		}.Run()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return rep
	}
	serial := run(1)
	par := run(2)
	if !bytes.Equal(serial.JSON(), par.JSON()) {
		t.Errorf("decoupled run diverged serial vs 2 shards\n--- serial ---\n%s--- parallel ---\n%s",
			serial.JSON(), par.JSON())
	}
	if par.LookaheadNS != int64(sim.MaxTime) {
		t.Fatalf("decoupled lookahead = %d, want sim.MaxTime sentinel", par.LookaheadNS)
	}
	if par.Shards != 2 || par.Partition == "" {
		t.Fatalf("partition observability missing: shards=%d partition=%q", par.Shards, par.Partition)
	}
	if !strings.Contains(par.Summary(), "fully decoupled") {
		t.Fatalf("Summary does not surface the decoupled partition:\n%s", par.Summary())
	}
	if strings.Contains(serial.Summary(), "shards") {
		t.Fatalf("serial Summary grew a shard line:\n%s", serial.Summary())
	}
}

// TestParallelRejectsUnsupportedLoads pins the engine's stated limits:
// loads whose drivers span shards fail up front with actionable errors
// instead of racing mid-run (option-level limits such as BER injection
// are TestParallelValidationOnePath's).
func TestParallelRejectsUnsupportedLoads(t *testing.T) {
	topo := phys.Sharded(2, 3, 1, 50)
	base := Scenario{
		Opts: Options{Fabric: &topo, Shards: 2},
		For:  2 * sim.Millisecond,
	}
	col := base
	col.Loads = []Load{&CollectiveLoad{Iters: 1}}
	if _, err := col.Run(); err == nil || !strings.Contains(err.Error(), "collective") {
		t.Fatalf("collective load under shards: err = %v, want unsupported", err)
	}
	fs := base
	fs.Loads = []Load{&FileStream{From: 0, To: 1}}
	if _, err := fs.Run(); err == nil || !strings.Contains(err.Error(), "filestream") {
		t.Fatalf("filestream load under shards: err = %v, want unsupported", err)
	}
}

// TestParallelValidationOnePath pins the parallel engine's single
// validation path: for each bad configuration, Scenario.Run's error,
// ValidateParallel's error and New's panic carry the same text, and
// that text names the knob at fault.
func TestParallelValidationOnePath(t *testing.T) {
	topo := phys.Sharded(2, 3, 1, 50)
	orphan := phys.Topology{Name: "orphan", Nodes: 4, Switches: 2, FiberM: 50,
		Attached: func(n, s int) bool { return n < 2 }}
	cases := []struct {
		name string
		opts Options
		knob string
	}{
		{"shards-over-switches", Options{Fabric: &topo, Shards: 3}, "Options.Shards"},
		{"deepphy-ber", Options{Fabric: &topo, Shards: 2, DeepPHY: true, BER: 1e-6}, "Options.BER"},
		{"invalid-topology", Options{Fabric: &orphan, Shards: 2}, `topology "orphan"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Scenario{Opts: c.opts, For: sim.Millisecond}.Run()
			if err == nil {
				t.Fatal("Scenario.Run accepted the bad options")
			}
			if !strings.Contains(err.Error(), c.knob) {
				t.Fatalf("error %q does not name %s", err, c.knob)
			}
			if verr := c.opts.ValidateParallel(); verr == nil || verr.Error() != err.Error() {
				t.Fatalf("ValidateParallel = %v, want %q", verr, err)
			}
			if panicked := newPanic(c.opts); panicked != err.Error() {
				t.Fatalf("New panicked with %q, want Scenario.Run's %q", panicked, err)
			}
		})
	}
}

// TestSnapshotPartition: a directly driven sharded cluster's Snapshot
// carries the partition fields, and its Summary prints the same
// partition line Scenario.Run's report prints for the same options.
func TestSnapshotPartition(t *testing.T) {
	topo := phys.Sharded(2, 3, 1, 50)
	opts := Options{Fabric: &topo, Shards: 2}
	rep, err := Scenario{Opts: opts, For: sim.Millisecond}.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := New(opts)
	defer c.Close()
	if err := c.Boot(0); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot("direct")
	if snap.Shards != 2 || snap.Partition == "" || snap.CutLinks == 0 {
		t.Fatalf("snapshot partition fields unset: shards %d, partition %q, cut links %d",
			snap.Shards, snap.Partition, snap.CutLinks)
	}
	partitionLine := func(summary string) string {
		for _, l := range strings.Split(summary, "\n") {
			if strings.Contains(l, "shards: partition") {
				return l
			}
		}
		return ""
	}
	got, want := partitionLine(snap.Summary()), partitionLine(rep.Summary())
	if want == "" || got != want {
		t.Fatalf("snapshot partition line %q, want Scenario.Run's %q", got, want)
	}
}

// newPanic returns the text New panics with for o, or "" when New
// accepts o.
func newPanic(o Options) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	New(o).Close()
	return ""
}

// TestPoissonLoadDeterministicAndBursty verifies the Poisson arrival
// option: same seed ⇒ identical report; different seed ⇒ different
// arrival pattern; and the inter-arrival stream is actually bursty
// (not the fixed cadence).
func TestPoissonLoadDeterministicAndBursty(t *testing.T) {
	topo := phys.Uniform(4, 2, 50)
	run := func(seed uint64) *Report {
		rep, err := Scenario{
			Opts:  Options{Fabric: &topo, Seed: seed},
			Loads: []Load{&PubSubLoad{Publisher: 0, Topic: 1, Every: 100 * sim.Microsecond, Poisson: true}},
			For:   10 * sim.Millisecond,
		}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(3), run(3)
	if !bytes.Equal(a.JSON(), b.JSON()) {
		t.Fatal("same-seed Poisson runs diverge")
	}
	c := run(4)
	if a.Loads[0].Sent == c.Loads[0].Sent && a.Loads[0].MaxLatencyNS == c.Loads[0].MaxLatencyNS {
		t.Fatal("different seeds produced an identical Poisson stream (suspicious)")
	}
	// A 10 ms run at a 100 µs mean holds ~100 arrivals; a fixed cadence
	// would send exactly 100. Expect the Poisson count to differ.
	if a.Loads[0].Sent == 100 {
		t.Fatalf("Poisson stream sent exactly the fixed-cadence count (%d): not bursty", a.Loads[0].Sent)
	}
}

// TestLargeFabricSmoke boots the largest addressable fabric — 248
// nodes over 8 sharded switch groups, the ceiling of the one-byte
// MicroPacket address space — on the parallel engine, and requires it
// to heal to a full ring within a wall-clock budget. This is the
// scale smoke CI runs; the serial-vs-parallel speedup at this size is
// recorded by the E14 benchmarks.
func TestLargeFabricSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large fabric smoke skipped in -short")
	}
	topo := phys.Sharded(8, 31, 1, 50)
	for i := range topo.Trunks {
		topo.Trunks[i].FiberM = 200
	}
	start := time.Now()
	rep, err := Scenario{
		Name: "large-fabric",
		Opts: Options{Fabric: &topo, Seed: 1, Shards: 8,
			HeartbeatInterval: 2 * sim.Millisecond},
		BootWindow: 200 * sim.Millisecond,
		Loads:      []Load{&PubSubLoad{Publisher: 0, Topic: 1, Every: 100 * sim.Microsecond, Subscribers: []int{31, 62, 124, 247}}},
		For:        5 * sim.Millisecond,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.RingSize != topo.Nodes || !rep.Healed {
		t.Fatalf("large fabric did not heal: ring=%d healed=%v", rep.RingSize, rep.Healed)
	}
	if rep.Drops != 0 {
		t.Fatalf("congestion drops at scale: %d", rep.Drops)
	}
	if wall := time.Since(start); wall > 5*time.Minute {
		t.Fatalf("large fabric smoke took %v, budget 5m", wall)
	}
}
