// Adaptive: a head-to-head of the controller registry on the same 5-hop
// chain. The first table runs the paper's legacy modes — plain 802.11,
// the static penalty scheme of [9] (which needs the topology-dependent
// factor q chosen offline), a DiffQ-style differential backlog controller
// (which needs message passing), and EZ-Flow (which needs neither). The
// second table demonstrates controller switching: the same scenario is
// re-run for every controller registered in the pluggable subsystem
// (ezflow.Controllers()) just by setting cfg.Controller — including the
// backpressure and explicit-feedback competitors — and prints throughput,
// delay, first-relay backlog, and control overhead bytes for each.
package main

import (
	"fmt"

	"ezflow"
)

// run executes the 5-hop chain under one configuration mutation and
// prints a table row for it.
func run(label string, mutate func(*ezflow.Config)) {
	cfg := ezflow.DefaultConfig()
	cfg.Duration = 900 * ezflow.Second
	cfg.Ctl.PenaltyQ = 1.0 / 128 // the hand-tuned value of [9]
	mutate(&cfg)

	sc := ezflow.NewChain(5, cfg, ezflow.FlowSpec{Flow: 1, RateBps: 2e6})
	res := sc.Run()
	fr := res.Flows[1]
	fmt.Printf("%-14s %10.1f %10.2f %14.1f %12d\n",
		label, fr.MeanThroughputKbps, fr.MeanDelaySec,
		res.MeanQueue[1], res.OverheadBytes)
}

func main() {
	header := fmt.Sprintf("%-14s %10s %10s %14s %12s\n",
		"controller", "kb/s", "delay s", "N1 backlog", "overhead B")

	fmt.Println("legacy modes (thin wrappers over the controller registry):")
	fmt.Print(header)
	for _, mode := range []ezflow.Mode{
		ezflow.Mode80211, ezflow.ModePenalty, ezflow.ModeDiffQ, ezflow.ModeEZFlow,
	} {
		m := mode
		run(m.String(), func(cfg *ezflow.Config) { cfg.Mode = m })
	}

	fmt.Println("\ncontroller switching via cfg.Controller (the whole registry):")
	fmt.Print(header)
	run("802.11", func(cfg *ezflow.Config) {}) // no controller: the baseline
	for _, name := range ezflow.Controllers() {
		n := name
		run(n, func(cfg *ezflow.Config) { cfg.Controller = n })
	}

	fmt.Println("\nEZ-Flow matches the hand-tuned penalty scheme without knowing the")
	fmt.Println("topology, and matches the signalling controllers (DiffQ, backpressure,")
	fmt.Println("feedback) without their per-frame message-passing overhead.")
}
