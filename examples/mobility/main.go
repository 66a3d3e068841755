// Mobility walkthrough: the same moving mesh under plain 802.11 and
// EZ-Flow, showing that hop-by-hop flow control keeps helping when the
// topology itself is in motion.
//
// The scenario is the shipped waypoint.json — the same format `ezsim
// -scenario file.json` accepts — a 4x4 grid whose relays roam at 3 m/s
// under the random-waypoint model while the gateway (mains-powered
// street furniture) stays pinned, serving a bursty 8-client downlink
// population. Every position tick moves its stations in one batch,
// rebuilding the PHY neighbor index once (phy.Channel.MoveNodes), and,
// whenever decode-range membership changes, repairs every route through
// the active routing strategy — the same repair path scripted link
// failures use. Runs are
// deterministic: the same file and seed reproduce every move, repair,
// and delivery.
//
// Run it:
//
//	go run ./examples/mobility
//
// The same experiment from the CLI:
//
//	go run ./cmd/ezsim -scenario examples/mobility/waypoint.json
//
// a static control run of the same file:
//
//	go run ./cmd/ezsim -scenario examples/mobility/waypoint.json -mobility off
//
// and the full cross product (controller x mobility x workload):
//
//	go run ./cmd/ezbench -exp mobility
package main

import (
	_ "embed"
	"fmt"
	"os"

	"ezflow/internal/scenario"
)

// specJSON is the shipped scenario file itself, embedded so this program
// and `ezsim -scenario examples/mobility/waypoint.json` can never drift
// apart.
//
//go:embed waypoint.json
var specJSON string

func main() {
	fmt.Println("4x4 grid, 8 bursty downlink clients, relays roaming at 3 m/s:")
	for _, mode := range []string{"802.11", "ezflow"} {
		spec, err := scenario.Parse([]byte(specJSON))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		spec.Mode = mode
		sc, err := spec.Build()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		res := sc.Run()
		var agg float64
		var delivered uint64
		for _, fr := range res.Flows {
			agg += fr.MeanThroughputKbps
			delivered += fr.Delivered
		}
		st := res.MobilityStats
		fmt.Printf("%-8s  %7.1f kb/s aggregate   fairness %.3f   delivered %6d   moves %5d   repairs %4d\n",
			mode, agg, res.Fairness, delivered, st.Moves, st.Repairs)
	}
	fmt.Println("\nSame mesh, same commuters, same bursts — only the control plane differs.")
}
