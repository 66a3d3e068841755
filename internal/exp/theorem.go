package exp

import (
	"math/rand"

	"ezflow/internal/markov"
)

// Theorem1Result is the numerical companion to the paper's §6 analysis:
// the random walk of Figure 12 run with fixed contention windows (the
// unstable chain of [9]) and with the EZ-Flow dynamics of Eq. (2), plus a
// Monte-Carlo check of Foster's condition (6) with the proof's
// region-dependent k.
type Theorem1Result struct {
	FixedMax, FixedMean float64
	EZMax, EZMean       float64
	EZFinalCW           []int
	RegionVisits        map[string]uint64
	// DriftByRegion is the k(region)-step expected Lyapunov drift from a
	// representative state of each region under the stabilising windows.
	DriftByRegion map[string]float64
	Report        Report
}

// Theorem1 runs the discrete-time 4-hop model of §6.
func Theorem1(o Options) *Theorem1Result {
	steps := int(400000 * o.Scale)
	if steps < 20000 {
		steps = 20000
	}
	r := &Theorem1Result{
		DriftByRegion: make(map[string]float64),
		Report:        Report{Name: "Theorem 1 (§6): 4-hop random walk, Lyapunov stability"},
	}

	// The fixed-window walk (the unstable chain of [9]) and the EZ-Flow
	// walk of Theorem 1 draw from independent seeded generators, so they
	// fan out through the campaign pool like any pair of scenario runs.
	walks := fanOut(o, []bool{false, true}, func(ezEnabled bool) *markov.RunStats {
		cfg := markov.DefaultConfig()
		cfg.EZEnabled = ezEnabled
		seed := o.Seed
		if ezEnabled {
			seed++
		}
		rng := rand.New(rand.NewSource(seed))
		st := markov.NewWalk(cfg, rng.Float64).Run(steps)
		return &st
	})
	st, st2 := walks[0], walks[1]
	r.FixedMax, r.FixedMean = float64(st.MaxBacklog), st.MeanBacklog
	r.EZMax, r.EZMean = float64(st2.MaxBacklog), st2.MeanBacklog
	r.EZFinalCW = st2.FinalCW
	r.RegionVisits = st2.RegionVisits

	// Foster condition (6) with the proof's per-region k, under the
	// stabilising window vector EZ-Flow discovers. Regions are evaluated
	// in sorted order with independently seeded generators: the Monte
	// Carlo estimates are a pure function of (seed, region), so the
	// per-region jobs fan out like any other run.
	reps := int(20000 * o.Scale)
	if reps < 2000 {
		reps = 2000
	}
	fosterRegions := markov.FosterRegions()
	regionIdx := make([]int, len(fosterRegions))
	for i := range regionIdx {
		regionIdx[i] = i
	}
	drifts := fanOut(o, regionIdx, func(i int) float64 {
		rng := rand.New(rand.NewSource(o.Seed + 2 + int64(i)))
		return markov.FosterDrift(fosterRegions[i], reps, rng.Float64)
	})
	for i, region := range fosterRegions {
		r.DriftByRegion[region] = drifts[i]
	}

	r.Report.addf("fixed cw=32 walk over %d slots: max backlog %.0f, mean %.1f (unstable, grows)",
		steps, r.FixedMax, r.FixedMean)
	r.Report.addf("EZ-flow walk over %d slots:   max backlog %.0f, mean %.1f (stable, bounded)",
		steps, r.EZMax, r.EZMean)
	r.Report.addf("EZ-flow final cw: %v (source penalised, relays aggressive)", r.EZFinalCW)
	for _, reg := range fosterRegions {
		r.Report.addf("Foster drift, region %s (k=%d): %+.4f", reg,
			markov.FosterK[reg], r.DriftByRegion[reg])
	}
	return r
}
