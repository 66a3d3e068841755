package exp

import (
	"fmt"

	root "ezflow"
	"ezflow/internal/dynamics"
	"ezflow/internal/sim"
)

// --------------------------------------------------------------------------
// Stability under fault injection: recovery from a mid-run link failure.
// This experiment goes beyond the paper's frozen topologies — it probes
// the claim the whole paper rests on (EZ-Flow restores stability without
// message passing) under the perturbation regime of the dynamics
// subsystem: the middle link of a 4-hop chain fails mid-run and returns
// shortly after. The paper's Figure 1 already shows plain 802.11 is
// turbulent on this chain; the question here is what happens on top of
// that when the network breaks and heals.

// StabilityRun is one mode's outcome in the stability experiment.
type StabilityRun struct {
	Mode root.Mode
	// ThroughputKbps is the whole-run mean goodput.
	ThroughputKbps float64
	// PreFaultKbps is the mean goodput before the failure.
	PreFaultKbps float64
	// Baseline reports whether the flow had pre-fault goodput to recover
	// to; without one, RecoverySec and Recovered say nothing.
	Baseline bool
	// RecoverySec is the time from failure until goodput returned to
	// within the tolerance of pre-fault (includes the outage; < 0 means
	// never).
	RecoverySec float64
	// MaxExcursionPkts is the largest relay backlog from the failure on.
	MaxExcursionPkts float64
	// TailMaxQueuePkts is the largest relay backlog over the final third
	// of the run — at the buffer cap for a controller that stayed
	// turbulent, small for one that restabilised.
	TailMaxQueuePkts float64
	// Recovered reports whether the flow recovered.
	Recovered bool
}

// StabilityResult bundles the three modes' runs.
type StabilityResult struct {
	Hops   int
	Runs   []*StabilityRun
	Report Report
}

// Get returns the run for a mode, or nil.
func (r *StabilityResult) Get(m root.Mode) *StabilityRun {
	for _, run := range r.Runs {
		if run.Mode == m {
			return run
		}
	}
	return nil
}

// Stability reproduces the link-failure recovery experiment: a saturating
// flow over a 4-hop chain, the middle link severed at one third of the
// run and restored a twentieth of the run later, under plain 802.11,
// EZ-Flow, and DiffQ. EZ-Flow recovers — finite recovery time and relay
// buffers back to small values by the final third — while 802.11's first
// relay keeps hitting the 50-packet cap (the turbulence of Figure 1,
// which the fault's backlog seeds immediately rather than eventually).
func Stability(o Options) *StabilityResult {
	const hops = 4
	out := &StabilityResult{
		Hops:   hops,
		Report: Report{Name: "Stability: recovery from a mid-run link failure (4-hop chain)"},
	}
	dur := o.dur(600)
	downAt := dur / 3
	upAt := downAt + dur/20
	modes := []root.Mode{root.Mode80211, root.ModeEZFlow, root.ModeDiffQ}
	results := fanOut(o, modes, func(mode root.Mode) *root.Result {
		cfg := baseConfig(o, mode, dur)
		cfg.WarmupSkip = dur / 10
		sc := root.NewChain(hops, cfg, root.FlowSpec{Flow: 1, RateBps: saturating})
		script := &dynamics.Script{Events: dynamics.RouteFaults(sc.Mesh, 1, downAt, upAt, true, false)}
		if err := sc.AddDynamics(script); err != nil {
			panic(err)
		}
		return sc.Run()
	})
	out.Report.addf("link N1<->N2 down at %v, up at %v (run %v)",
		downAt, upAt, dur)
	for i, mode := range modes {
		run := newStabilityRun(mode, results[i])
		out.Runs = append(out.Runs, run)
		out.Report.addf("%s", run.line())
	}
	out.Report.addf("expected shape: EZ-flow drains the fault backlog and settles; 802.11 stays turbulent at the cap")
	return out
}

// newStabilityRun condenses one mode's run of the experiment's flow 1.
func newStabilityRun(mode root.Mode, res *root.Result) *StabilityRun {
	st := res.Stability
	rec, ok := st.RecoverySec[1]
	return &StabilityRun{
		Mode:             mode,
		ThroughputKbps:   res.Flows[1].MeanThroughputKbps,
		PreFaultKbps:     st.PreFaultKbps[1],
		Baseline:         ok,
		RecoverySec:      rec,
		MaxExcursionPkts: st.MaxQueueExcursion,
		TailMaxQueuePkts: st.TailMaxQueuePkts,
		Recovered:        st.Recovered,
	}
}

// line is the run's report line.
func (run *StabilityRun) line() string {
	verdict := "stable after repair"
	if run.TailMaxQueuePkts >= 45 {
		verdict = "queues still hit the cap"
	}
	rec := "never"
	switch {
	case !run.Baseline:
		rec = "no baseline"
	case run.RecoverySec >= 0:
		rec = sim.FromSeconds(run.RecoverySec).String()
	}
	return fmt.Sprintf("%-9s pre-fault %6.1f kb/s  recovery %-10s excursion %4.0f pkts  tail max %4.0f pkts  (%s)",
		run.Mode.String()+":", run.PreFaultKbps, rec, run.MaxExcursionPkts, run.TailMaxQueuePkts, verdict)
}
