// Benchmarks regenerating every table/figure of the AmpNet paper, one
// per experiment in DESIGN.md §2 (E1–E12; recorded results and sweep
// aggregates live in EXPERIMENTS.md), plus micro-benchmarks of the
// substrates. The printable tables come from cmd/ampbench; these
// benchmarks time the same code paths and report domain metrics
// (ring-tours, µs of virtual heal time, Mb/s) via b.ReportMetric.
package ampnet

import (
	"testing"

	"repro/internal/core"
	"repro/internal/enc8b10b"
	"repro/internal/experiments"
	"repro/internal/micropacket"
	"repro/internal/netcache"
	"repro/internal/phys"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// --- E1/E2: MicroPacket codec ---

func BenchmarkE1MicroPacketCodec(b *testing.B) {
	p := micropacket.NewData(1, 2, 3, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		raw, err := wire.Encode(wire.V1, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := wire.Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2WireFormatsVariable(b *testing.B) {
	data := make([]byte, 64)
	p := micropacket.NewDMA(1, 2, micropacket.DMAHeader{Channel: 3}, data)
	b.SetBytes(int64(wire.Size(wire.V1, micropacket.TypeDMA, 64)))
	for i := 0; i < b.N; i++ {
		raw, err := wire.Encode(wire.V1, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := wire.Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func Benchmark8b10bEncode(b *testing.B) {
	enc := enc8b10b.NewEncoder()
	b.SetBytes(1)
	for i := 0; i < b.N; i++ {
		enc.EncodeData(byte(i))
	}
}

func Benchmark8b10bDecode(b *testing.B) {
	enc := enc8b10b.NewEncoder()
	syms := make([]enc8b10b.Symbol, 4096)
	for i := range syms {
		syms[i] = enc.EncodeData(byte(i))
	}
	dec := enc8b10b.NewDecoder()
	b.SetBytes(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decode(syms[i%len(syms)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: multi-stream insertion (slide 7) ---

func BenchmarkE3MultiStream(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E3MultiStream(100)
		if len(t.Rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

// --- E4: all-to-all losslessness (slide 8) ---

func BenchmarkE4AllToAllLossless(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E4AllToAll(8, 50)
		if len(t.Rows) != 2 {
			b.Fatal("bad table")
		}
		if t.Rows[0][6] != "LOSSLESS" {
			b.Fatalf("AmpNet dropped: %v", t.Rows[0])
		}
	}
}

// --- E5: seqlock cache (slide 9) ---

func BenchmarkE5SeqlockTryRead(b *testing.B) {
	c := netcache.New()
	c.AddRegion(1, 4096)
	w := netcache.NewWriter(c, nil)
	rec := netcache.Record{Region: 1, Off: 0, Size: 64}
	w.WriteRecord(rec, make([]byte, 64))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.TryRead(rec); !ok {
			b.Fatal("torn")
		}
	}
}

func BenchmarkE5HostRecordReadUnderWrites(b *testing.B) {
	h := netcache.NewHostRecord(64)
	h.Write(make([]byte, 64))
	stop := make(chan struct{})
	go func() {
		buf := make([]byte, 64)
		for {
			select {
			case <-stop:
				return
			default:
				h.Write(buf)
			}
		}
	}()
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Read(buf)
	}
	b.StopTimer()
	close(stop)
}

// --- E6: network semaphores (slide 10) ---

func BenchmarkE6Semaphores(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E6Semaphores(4, 5)
		if t.Rows[0][4] != "YES" {
			b.Fatalf("mutual exclusion violated: %v", t.Rows[0])
		}
	}
}

// --- E7: redundancy (slides 14–15) ---

func BenchmarkE7Redundancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E7Redundancy(6)
		for _, row := range t.Rows {
			if row[3] != "yes" {
				b.Fatalf("ring not full: %v", row)
			}
		}
	}
}

// --- E8: rostering completion (slide 16) ---

func BenchmarkE8Rostering(b *testing.B) {
	// One heal of the 8-node, 1 km quad-redundant ring per iteration;
	// reports virtual heal time and ring-tours as metrics. The full
	// node-count × fiber sweep is in cmd/ampbench -exp e8.
	var healNS, tours float64
	for i := 0; i < b.N; i++ {
		heal, tour := healOnce(uint64(i + 1))
		healNS = float64(heal)
		tours = float64(heal) / float64(tour)
	}
	b.ReportMetric(healNS/1000, "virtual-heal-µs")
	b.ReportMetric(tours, "ring-tours")
}

// --- E9: assimilation (slide 17) ---

func BenchmarkE9Assimilation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E9Assimilation()
		last := t.Rows[len(t.Rows)-1]
		if last[3] != "rejected (correct)" {
			b.Fatalf("version gate failed: %v", last)
		}
	}
}

// --- E10: failover (slides 18–19) ---

func BenchmarkE10Failover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E10Failover()
		for _, row := range t.Rows {
			if row[5] != "NONE" {
				b.Fatalf("data loss: %v", row)
			}
		}
	}
}

// --- E11: self-heal vs baseline (slides 2, 13, 18) ---

func BenchmarkE11SelfHealVsBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E11SelfHealVsBaseline()
		if len(t.Rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

// --- E12: AmpIP + collectives (slides 3, 12) ---

func BenchmarkE12AmpIPCollectives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E12Collectives(4)
		for _, row := range t.Rows {
			if row[2] == "INCOMPLETE" {
				b.Fatalf("collective incomplete: %v", row)
			}
		}
	}
}

// --- E14: parallel sharded engine (internal/parsim) ---

// benchParsim runs one fixed fault+load scenario per iteration on the
// given shard count and reports virtual-events-per-second economics:
// ns/event is the number that must not regress, and comparing the
// Serial and Sharded variants of one size gives the machine's speedup.
// Node counts here stop at 248 — the ceiling of the wire v1 address
// space these scenarios run under; the v2 sizes beyond it are the
// BenchmarkE15* pair below.
func benchParsim(b *testing.B, nodes, shards int, rec *telemetry.Recorder) {
	topo := phys.Sharded(8, nodes/8, 1, 50)
	for i := range topo.Trunks {
		topo.Trunks[i].FiberM = 200
	}
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Steady-state recording cost: keep the span buffers' capacity
		// across iterations (nil-safe no-op for the telemetry-off runs).
		rec.Reset()
		var cl *core.Cluster
		rep, err := core.Scenario{
			Name: "bench",
			Opts: core.Options{Fabric: &topo, Seed: 1, Shards: shards,
				HeartbeatInterval: 1 * sim.Millisecond, Telemetry: rec},
			BootWindow: 200 * sim.Millisecond,
			Plan:       core.Plan{core.FailSwitch(5*sim.Millisecond, 7), core.RestoreSwitch(15*sim.Millisecond, 7)},
			Loads: []core.Load{&core.PubSubLoad{
				Publisher: 0, Topic: 1, Every: 100 * sim.Microsecond,
				Subscribers: []int{1, nodes / 2, nodes - 1},
			}},
			For:       20 * sim.Millisecond,
			OnCluster: func(c *core.Cluster) { cl = c },
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
		// Congestion drops during the switch-death transition are a
		// model outcome (identical on both engines), not a bench
		// failure; surface them instead.
		b.ReportMetric(float64(rep.Drops), "drops")
		// An unconserved ledger means the run timed garbage.
		if rep.Frames == nil || !rep.Frames.Conserved {
			b.Fatalf("frame ledger not conserved: %+v", rep.Frames)
		}
		events = cl.EventsFired()
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		b.ReportMetric(float64(events), "events")
	}
}

func BenchmarkE14ParsimSerial64(b *testing.B) { benchParsim(b, 64, 1, nil) }

// BenchmarkE14Parsim64 is the 8-shard counterpart of
// BenchmarkE14ParsimSerial64 and the frame-accounting overhead guard:
// its baseline was captured with the conservation ledger threaded
// through every frame create/destroy site, and CI holds this entry to
// a tighter 25% gate (its own benchguard invocation) than the fleet's
// shared tolerance. Accounting is always on, so any future growth of
// the ledger's hot-path cost — new counters, heavier cause
// classification — lands here first.
func BenchmarkE14Parsim64(b *testing.B) { benchParsim(b, 64, 8, nil) }

// BenchmarkE14Parsim64Telemetry is the telemetry-overhead guard: the
// exact BenchmarkE14Parsim64 scenario with a wall-clock span recorder
// attached. CI's benchguard holds the Parsim64/Parsim64Telemetry ratio
// to ≥0.95 — recording every window/run/exchange span may cost at most
// 5% — so the flight recorder stays cheap enough to leave on.
func BenchmarkE14Parsim64Telemetry(b *testing.B) {
	benchParsim(b, 64, 8, telemetry.NewRecorder(nil))
}

func BenchmarkE14ParsimSerial128(b *testing.B)  { benchParsim(b, 128, 1, nil) }
func BenchmarkE14ParsimSharded128(b *testing.B) { benchParsim(b, 128, 8, nil) }

// The 248-node pair is the v1 address-space ceiling: heavyweight
// (tens of seconds per iteration), for on-demand speedup measurements
// rather than the CI guard.
func BenchmarkE14ParsimSerial248(b *testing.B)  { benchParsim(b, 248, 1, nil) }
func BenchmarkE14ParsimSharded248(b *testing.B) { benchParsim(b, 248, 8, nil) }

// --- E16: scaling efficiency (cut-aware partition, internal/phys) ---

// benchE16Scaling times the sharded-shape scenario of the E16 table —
// 96 nodes over 8 shard groups joined by 200 m trunks, a mid-run
// switch failure + restore under pub-sub load — at one shard count.
// This is the fabric where the cut-aware partitioner earns its keep
// (cut of N links at 1 µs lookahead instead of hundreds at 250 ns),
// so Serial vs ShardedN ratios here are the machine's scaling curve.
// Light enough for the CI bench guard, unlike the E14-248/E15 pairs.
func benchE16Scaling(b *testing.B, shards int) {
	const nodes, switches = 96, 8
	topo := phys.Sharded(switches, nodes/switches, 1, 50)
	for i := range topo.Trunks {
		topo.Trunks[i].FiberM = 200
	}
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cl *core.Cluster
		rep, err := core.Scenario{
			Name: "bench-e16",
			Opts: core.Options{Fabric: &topo, Seed: 1, Shards: shards,
				HeartbeatInterval: 1 * sim.Millisecond},
			BootWindow: 100 * sim.Millisecond,
			Plan:       core.Plan{core.FailSwitch(6*sim.Millisecond, switches-1), core.RestoreSwitch(12*sim.Millisecond, switches-1)},
			Loads: []core.Load{&core.PubSubLoad{
				Publisher: 0, Topic: 1, Every: 100 * sim.Microsecond,
				Subscribers: []int{1, nodes / 2, nodes - 2},
			}},
			For:       18 * sim.Millisecond,
			OnCluster: func(c *core.Cluster) { cl = c },
		}.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Drops), "drops")
		events = cl.EventsFired()
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		b.ReportMetric(float64(events), "events")
	}
}

func BenchmarkE16ScalingSerial(b *testing.B)   { benchE16Scaling(b, 1) }
func BenchmarkE16ScalingSharded2(b *testing.B) { benchE16Scaling(b, 2) }
func BenchmarkE16ScalingSharded4(b *testing.B) { benchE16Scaling(b, 4) }
func BenchmarkE16ScalingSharded8(b *testing.B) { benchE16Scaling(b, 8) }

// --- E15: scaling past 255 nodes (wire v2, internal/wire) ---

// benchWireScale is the E15 economics benchmark: it times exactly
// experiments.E15Scenario (512 nodes over 8 rings, crash+reboot,
// Poisson pub-sub, liveness cadences retuned for scale) under the
// uint16-address wire format. Like the 248-node E14 pair it is
// heavyweight and excluded from the CI bench guard; its baseline
// entries record the on-demand serial-vs-sharded speedup at a size
// wire v1 cannot address at all.
func benchWireScale(b *testing.B, nodes, shards int) {
	var events uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cl *core.Cluster
		sc := experiments.E15Scenario(nodes, 1, shards)
		sc.OnCluster = func(c *core.Cluster) { cl = c }
		rep, err := sc.Run()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.Drops), "drops")
		events = cl.EventsFired()
	}
	b.StopTimer()
	if events > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		b.ReportMetric(float64(events), "events")
	}
}

func BenchmarkE15WireScaleSerial512(b *testing.B)  { benchWireScale(b, 512, 1) }
func BenchmarkE15WireScaleSharded512(b *testing.B) { benchWireScale(b, 512, 8) }

// --- substrate micro-benchmarks ---

func BenchmarkSimKernelEventThroughput(b *testing.B) {
	k := sim.NewKernel(1)
	b.ReportAllocs()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(10, tick)
		}
	}
	k.After(0, tick)
	k.Run()
	if n < b.N {
		b.Fatal("did not run all events")
	}
}

func BenchmarkPhysPointToPoint(b *testing.B) {
	k := sim.NewKernel(1)
	net := phys.NewNet(k)
	delivered := 0
	a := net.NewPort("a", nil)
	p := net.NewPort("b", func(_ *phys.Port, f phys.Frame) { delivered++ })
	net.Connect(a, p, 10)
	f := net.NewFrame(micropacket.NewData(1, 2, 0, nil))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for !a.Send(f) {
			k.Step()
		}
		k.Run()
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// healOnce performs one switch-failure heal on an 8-node/1 km rig and
// returns (heal time from detection, tour estimate).
func healOnce(seed uint64) (sim.Time, sim.Time) {
	h := experiments.NewHealBench(seed, 8, 4, 1000)
	return h.HealOnce()
}
