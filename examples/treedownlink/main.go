// Tree downlink: the extension sketched in the paper's conclusion (§7) —
// a gateway fans traffic out to several leaf access points through
// interior nodes that forward to up to four successors, repurposing the
// four 802.11e access-category queues as one queue (one CWmin) per
// successor. EZ-Flow then runs one BOE/CAA controller per successor queue.
package main

import (
	"fmt"
	"sort"

	"ezflow"
	"ezflow/internal/ctl"
)

func main() {
	const branching, depth = 3, 2
	for _, mode := range []ezflow.Mode{ezflow.Mode80211, ezflow.ModeEZFlow} {
		cfg := ezflow.DefaultConfig()
		cfg.Mode = mode
		cfg.Duration = 900 * ezflow.Second

		// One downlink flow per leaf; the default splits a saturating
		// load evenly across the leaves.
		sc := ezflow.NewTree(branching, depth, cfg)
		fmt.Printf("--- %v (tree %d^%d: %d leaves, gateway runs %d per-successor queues) ---\n",
			mode, branching, depth, len(sc.Mesh.Flows()), len(sc.Mesh.Node(0).Queues()))

		res := sc.Run()
		var flows []ezflow.FlowID
		for f := range res.Flows {
			flows = append(flows, f)
		}
		sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
		for _, f := range flows {
			fmt.Printf("  leaf flow %v: %6.1f kb/s (delay %.2fs)\n",
				f, res.Flows[f].MeanThroughputKbps, res.Flows[f].MeanDelaySec)
		}
		fmt.Printf("  aggregate %.1f kb/s, Jain FI %.3f\n", res.AggKbps, res.Fairness)
		if mode == ezflow.ModeEZFlow {
			fmt.Printf("  controllers deployed: %d (one per relay successor)\n",
				len(sc.Ctl.(*ctl.Deployment).Relays))
		}
	}
}
