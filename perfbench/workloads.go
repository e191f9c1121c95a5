package main

import (
	"repro/internal/core"
	"repro/internal/netcache"
	"repro/internal/phys"
	"repro/internal/sim"
)

// A workload turns a seed into the inputs of one core.Scenario: the
// fabric, the fault plan and the loads. The program under test sees
// only the generated scenario, never the seed's meaning. README.md
// records why each workload is here.
type workload struct {
	name string
	// shards is the engine the scenario runs on (1 = serial).
	shards int
	// reference, if set, names the workload whose report this one must
	// equal byte for byte for the same seed.
	reference string
	build     func(seed uint64) core.Scenario
}

var workloads = []workload{
	{
		name:   "fabric96-serial",
		shards: 1,
		build:  fabric96,
	},
	{
		name:      "fabric96-shard2",
		shards:    2,
		reference: "fabric96-serial",
		build:     fabric96,
	},
	{
		name:   "heal-churn",
		shards: 1,
		build:  healChurn,
	},
	{
		name:   "flood32",
		shards: 1,
		build:  flood32,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// between draws a uniform virtual time in [lo, hi) at microsecond
// resolution.
func between(r *sim.RNG, lo, hi sim.Time) sim.Time {
	return lo + sim.Time(r.Intn(int((hi-lo)/sim.Microsecond)))*sim.Microsecond
}

// fabric96 is the E16 scenario: 8 rings of 12 nodes, one switch each,
// joined by 200 m trunks, 1 ms heartbeats, a paced pub-sub stream, and
// the last switch failing at 6 ms and restored at 12 ms. The seed is
// the cluster seed; nothing in this scenario draws from it, so every
// seed runs the same inputs. The fail and restore instants stay fixed
// because other instants expose congestion drops (see README.md). The
// shard count is applied by the caller.
func fabric96(seed uint64) core.Scenario {
	const nodes, switches = 96, 8
	topo := phys.Sharded(switches, nodes/switches, 1, 50)
	for i := range topo.Trunks {
		topo.Trunks[i].FiberM = 200
	}
	fail, restore := 6*sim.Millisecond, 12*sim.Millisecond
	return core.Scenario{
		Name:       "fabric96",
		Opts:       core.Options{Fabric: &topo, Seed: seed, HeartbeatInterval: 1 * sim.Millisecond},
		BootWindow: 100 * sim.Millisecond,
		Plan:       core.Plan{core.FailSwitch(fail, switches-1), core.RestoreSwitch(restore, switches-1)},
		Loads: []core.Load{&core.PubSubLoad{
			Publisher: 0, Topic: 1, Every: 100 * sim.Microsecond,
			Subscribers: []int{1, nodes / 2, nodes - 2},
		}},
		For: 18 * sim.Millisecond,
	}
}

// healChurnCycles is the number of crash→reboot plus fail→restore
// cycles in heal-churn; each cycle fires four plan events.
const healChurnCycles = 16

// healChurn runs the paper's uniform 16-node × 4-switch segment through
// seeded fault cycles: a node crash and its reboot, then a switch fail
// and its restore. The seed picks each victim and each gap. Node 0
// writes the replicated cache record and node 1 publishes, so neither
// is a crash victim.
func healChurn(seed uint64) core.Scenario {
	const nodes, switches = 16, 4
	r := sim.NewRNG(seed)
	var plan core.Plan
	at := 2 * sim.Millisecond
	for i := 0; i < healChurnCycles; i++ {
		victim := 2 + r.Intn(nodes-2)
		at += between(r, 1500*sim.Microsecond, 2500*sim.Microsecond)
		plan = append(plan, core.CrashNode(at, victim))
		at += between(r, 1500*sim.Microsecond, 2500*sim.Microsecond)
		plan = append(plan, core.RebootNode(at, victim))
		sw := r.Intn(switches)
		at += between(r, 1500*sim.Microsecond, 2500*sim.Microsecond)
		plan = append(plan, core.FailSwitch(at, sw))
		at += between(r, 1500*sim.Microsecond, 2500*sim.Microsecond)
		plan = append(plan, core.RestoreSwitch(at, sw))
	}
	return core.Scenario{
		Name: "heal-churn",
		Opts: core.Options{Nodes: nodes, Switches: switches, Seed: seed, Regions: map[uint8]int{1: 4096}},
		Plan: plan,
		Loads: []core.Load{
			&core.CacheChurn{Writer: 0, Record: netcache.Record{Region: 1, Off: 0, Size: 64}, Every: 50 * sim.Microsecond},
			&core.PubSubLoad{Publisher: 1, Topic: 1, Every: 100 * sim.Microsecond},
		},
		For: at + 3*sim.Millisecond,
	}
}

// flood32 is unfaulted contention: 8 Poisson publishers, ~10 µs mean
// inter-arrival, 48-byte payloads, every other node subscribed to every
// topic. The seed is the cluster seed, which drives the arrival
// streams.
func flood32(seed uint64) core.Scenario {
	const nodes, publishers = 32, 8
	var loads []core.Load
	for i := 0; i < publishers; i++ {
		loads = append(loads, &core.PubSubLoad{
			Publisher: i * nodes / publishers, Topic: uint8(i + 1),
			Every: 10 * sim.Microsecond, Poisson: true, Payload: 48,
		})
	}
	return core.Scenario{
		Name:  "flood32",
		Opts:  core.Options{Nodes: nodes, Switches: 2, Seed: seed},
		Loads: loads,
		For:   20 * sim.Millisecond,
	}
}
