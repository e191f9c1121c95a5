// Command amproster visualizes the rostering algorithm: it builds a
// cluster, injects a failure sequence, and prints each roster adoption
// as it happens — epoch, trigger-to-adoption latency in ring tours, and
// the resulting logical ring.
//
// Usage:
//
//	amproster -nodes 6 -switches 4 -fiber 1000
package main

import (
	"flag"
	"fmt"
	"log"

	ampnet "repro"
	"repro/internal/rostering"
	"repro/internal/sim"
)

func main() {
	nodes := flag.Int("nodes", 6, "number of nodes")
	switches := flag.Int("switches", 4, "number of switches")
	fiber := flag.Float64("fiber", 1000, "fiber meters per link")
	seed := flag.Uint64("seed", 1, "deterministic seed")
	flag.Parse()

	c := ampnet.New(ampnet.Options{Nodes: *nodes, Switches: *switches, FiberMeters: *fiber, Seed: *seed})

	// Print node 0's adoptions (all nodes adopt equal rosters).
	agent := c.Node(0).DK().Agent
	agent.OnAdopt = func(r *rostering.Roster) {
		lat := c.Now() - agent.RoundStart()
		tour := rostering.EstimateTour(*nodes, *fiber, c.Nets[0])
		fmt.Printf("t=%-12v ADOPT epoch %-3d (%.2f ring tours after trigger)\n",
			c.Now(), r.Epoch, float64(lat)/float64(tour))
		fmt.Printf("               %s\n", r)
	}

	if err := c.Boot(0); err != nil {
		log.Fatal(err)
	}
	tour := rostering.EstimateTour(*nodes, *fiber, c.Nets[0])
	fmt.Printf("ring tour estimate: %v (N=%d, fiber=%.0fm)\n\n", tour, *nodes, *fiber)

	// The failure sequence is a declarative plan: one event every
	// 15 ms, leaving the ring time to settle between triggers.
	plan := ampnet.Plan{
		ampnet.FailSwitch(5*sim.Millisecond, 0),
		ampnet.FailLink(20*sim.Millisecond, 1, 1),
		ampnet.CrashNode(35*sim.Millisecond, 2),
		ampnet.RebootNode(50*sim.Millisecond, 2),
		ampnet.RestoreSwitch(65*sim.Millisecond, 0),
	}
	c.OnEvent = func(e ampnet.Event) { fmt.Printf("t=%-12v EVENT %s\n", c.Now(), e) }
	if err := c.Install(plan); err != nil {
		log.Fatal(err)
	}
	c.Run(75 * sim.Millisecond)
	if err := c.WaitHealed(25 * sim.Millisecond); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal ring (size %d): %s\n", c.RingSize(), c.Roster())
}
