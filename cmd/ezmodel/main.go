// Command ezmodel runs the discrete-time random-walk model of the paper's
// §6 analysis: the K-hop chain as a walk on the positive orthant, with or
// without the EZ-Flow window dynamics, printing the trajectory statistics,
// the region-visit histogram, the transmission-pattern distribution of the
// current state (Table 4 for K = 4), and the per-region Foster drift check
// behind Theorem 1.
//
// Usage:
//
//	ezmodel -k 4 -steps 500000           # EZ-Flow dynamics (stable)
//	ezmodel -k 4 -steps 500000 -fixed    # fixed windows (unstable)
//	ezmodel -k 6 -ez-table               # pattern distribution dump
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"sort"

	"ezflow/internal/buildinfo"
	"ezflow/internal/markov"
)

func main() {
	var (
		k       = flag.Int("k", 4, "number of hops")
		steps   = flag.Int("steps", 500000, "slots to simulate")
		fixed   = flag.Bool("fixed", false, "disable EZ-Flow (fixed equal windows)")
		initCW  = flag.Int("cw", 32, "initial contention window")
		seed    = flag.Int64("seed", 1, "random seed")
		table   = flag.Bool("ez-table", false, "print the transmission-pattern distribution of the all-backlogged state and exit")
		foster  = flag.Bool("foster", false, "run the per-region Foster drift check (K=4 only)")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("ezmodel " + buildinfo.String())
		return
	}

	cfg := markov.DefaultConfig()
	cfg.K = *k
	cfg.InitCW = *initCW
	cfg.EZEnabled = !*fixed
	rng := rand.New(rand.NewSource(*seed))
	w := markov.NewWalk(cfg, rng.Float64)

	if *table {
		for i := 1; i < *k; i++ {
			w.B[i] = 2
		}
		fmt.Printf("pattern distribution, all relays backlogged, cw=%v:\n", w.CW)
		fmt.Print(markov.Describe(w.Patterns()))
		return
	}

	st := w.Run(*steps)
	mode := "EZ-flow"
	if *fixed {
		mode = "fixed-cw"
	}
	fmt.Printf("K=%d %s walk, %d slots\n", *k, mode, *steps)
	fmt.Printf("  max total backlog : %d\n", st.MaxBacklog)
	fmt.Printf("  mean total backlog: %.2f\n", st.MeanBacklog)
	fmt.Printf("  final buffers     : %v\n", w.B[1:])
	fmt.Printf("  final cw          : %v\n", st.FinalCW)
	if *k == 4 {
		var regions []string
		for r := range st.RegionVisits {
			regions = append(regions, r)
		}
		sort.Strings(regions)
		fmt.Print("  region visits     :")
		for _, r := range regions {
			fmt.Printf(" %s=%.1f%%", r, 100*float64(st.RegionVisits[r])/float64(st.Steps))
		}
		fmt.Println()
	}

	if *foster && *k == 4 {
		fmt.Println("Foster condition (6), stabilising cw = [2^11, 16, 16, 16]:")
		for _, region := range markov.FosterRegions() {
			d := markov.FosterDrift(region, 20000, rng.Float64)
			fmt.Printf("  region %s (k=%2d): drift %+.4f\n", region, markov.FosterK[region], d)
		}
	}
}
