package exp

import (
	"fmt"

	root "ezflow"
	"ezflow/internal/dynamics"
	"ezflow/internal/sim"
)

// --------------------------------------------------------------------------
// Controller head-to-head: the evaluation matrix the paper argues against.
// The paper's claim is that EZ-Flow's passive, message-free estimation
// matches hop-by-hop schemes that rely on explicit signalling. This
// experiment runs the four controller families of internal/ctl — the
// degenerate static per-hop window, queue-differential backpressure
// (piggybacked backlogs), explicit per-hop rate feedback (injected
// control frames), and EZ-Flow itself — over the paper's chain and
// parking-lot scenarios, statically and under the dynamics subsystem's
// flap and churn perturbations, and reports throughput, Jain fairness,
// tail queue, recovery time, and the control bytes each scheme paid.

// CompetitorControllers is the head-to-head set, in report order: the
// degenerate control first, then the two explicit-signalling schemes,
// then the paper's message-free controller.
var CompetitorControllers = []string{"staticcap", "backpressure", "feedback", "ezflow"}

// ControllerDynamics names the perturbation regimes of the head-to-head:
// a frozen topology, a mid-run link flap, and a mid-run relay churn (both
// from 40% to 50% of the run, with BFS route repair — the PR-3 dynamics
// timelines).
var ControllerDynamics = []string{"static", "flap", "churn"}

// ControllerRun is one (controller, topology, dynamics) cell.
type ControllerRun struct {
	Controller string
	Topology   string // "chain4" or "parking-lot"
	Dynamics   string // "static", "flap" or "churn"
	// AggKbps is the cumulative mean goodput across flows.
	AggKbps float64
	// Fairness is Jain's index over per-flow mean throughputs.
	Fairness float64
	// TailQueuePkts is the largest relay backlog over the final third of
	// a perturbed run (0 on static cells) — the divergence indicator.
	TailQueuePkts float64
	// RecoverySec is the slowest flow's recovery time: -1 on static
	// cells, -2 when some flow never recovered.
	RecoverySec float64
	// Recovered reports whether every flow recovered (true on static
	// cells).
	Recovered bool
	// OverheadBytes is the control traffic the scheme put on the air.
	OverheadBytes uint64
}

// ControllersResult bundles the full matrix.
type ControllersResult struct {
	Runs   []*ControllerRun
	Report Report
}

// Get returns the cell for (controller, topology, dynamics), or nil.
func (r *ControllersResult) Get(ctrl, topo, dyn string) *ControllerRun {
	for _, run := range r.Runs {
		if run.Controller == ctrl && run.Topology == topo && run.Dynamics == dyn {
			return run
		}
	}
	return nil
}

// controllerCell identifies one run of the head-to-head grid.
type controllerCell struct {
	ctrl, topo, dyn string
}

// Controllers runs the head-to-head matrix: every competitor controller
// over the 4-hop chain and the testbed parking lot (F1+F2 sharing F1's
// tail, under the MadWifi 2^10 cap), each frozen, with a mid-run link
// flap, and with a mid-run relay churn. All runs fan out over the
// campaign worker pool; output is identical for any Parallel.
func Controllers(o Options) *ControllersResult {
	out := &ControllersResult{
		Report: Report{Name: "Controller head-to-head: staticcap vs backpressure vs feedback vs EZ-flow"},
	}
	dur := o.dur(600)
	downAt, upAt := dur/5*2, dur/2

	var cells []controllerCell
	for _, topo := range []string{"chain4", "parking-lot"} {
		for _, dyn := range ControllerDynamics {
			for _, ctrl := range CompetitorControllers {
				cells = append(cells, controllerCell{ctrl, topo, dyn})
			}
		}
	}
	// Each cell's cached value is its scalar summary row, so a warm
	// fabric store replays the whole matrix without simulating.
	results := fanOut(o, cells, func(c controllerCell) ControllerRun {
		cellID := struct {
			Controller string `json:"controller"`
			Topology   string `json:"topology"`
			Dynamics   string `json:"dynamics"`
		}{c.ctrl, c.topo, c.dyn}
		return cachedCell(o, "exp.controllers", dur.Seconds(), cellID, func() ControllerRun {
			cfg := baseConfig(o, root.Mode80211, dur)
			cfg.Controller = c.ctrl
			cfg.WarmupSkip = dur / 10
			var sc *root.Scenario
			if c.topo == "chain4" {
				sc = root.NewChain(4, cfg, root.FlowSpec{Flow: 1, RateBps: saturating})
			} else {
				cfg.MAC.HardwareCWCap = 1 << 10 // MadWifi constraint (§4.1)
				sc = root.NewTestbed(cfg,
					root.FlowSpec{Flow: 1, RateBps: saturating},
					root.FlowSpec{Flow: 2, RateBps: saturating})
			}
			flap, churn := c.dyn == "flap", c.dyn == "churn"
			if evs := dynamics.RouteFaults(sc.Mesh, 1, downAt, upAt, flap, churn); len(evs) > 0 {
				if err := sc.AddDynamics(&dynamics.Script{Events: evs}); err != nil {
					panic(err)
				}
			}
			res := sc.Run()
			run := ControllerRun{
				Controller:    c.ctrl,
				Topology:      c.topo,
				Dynamics:      c.dyn,
				AggKbps:       res.AggKbps,
				Fairness:      res.Fairness,
				RecoverySec:   res.Stability.SlowestRecoverySec(),
				Recovered:     true,
				OverheadBytes: res.OverheadBytes,
			}
			if st := res.Stability; st != nil {
				run.TailQueuePkts = st.TailMaxQueuePkts
				run.Recovered = st.Recovered
			}
			return run
		})
	})

	for i := range cells {
		run := results[i]
		out.Runs = append(out.Runs, &run)
	}

	out.Report.addf("chain4: saturating flow over a 4-hop chain; parking-lot: testbed F1+F2 (cap 2^10)")
	out.Report.addf("flap: middle link of F1 down %v..%v; churn: middle relay halted (BFS repair)", downAt, upAt)
	for _, topo := range []string{"chain4", "parking-lot"} {
		for _, dyn := range ControllerDynamics {
			out.Report.addf("%s / %s:", topo, dyn)
			for _, ctrl := range CompetitorControllers {
				run := out.Get(ctrl, topo, dyn)
				line := fmt.Sprintf("  %-12s agg %7.1f kb/s  FI %.3f", ctrl, run.AggKbps, run.Fairness)
				if dyn != "static" {
					rec := "never"
					if run.RecoverySec >= 0 {
						rec = sim.FromSeconds(run.RecoverySec).String()
					}
					line += fmt.Sprintf("  recovery %-10s tail %4.0f pkts", rec, run.TailQueuePkts)
				}
				if run.OverheadBytes > 0 {
					line += fmt.Sprintf("  overhead %d B", run.OverheadBytes)
				} else {
					line += "  overhead 0 B (message-free)"
				}
				out.Report.addf("%s", line)
			}
		}
	}
	out.Report.addf("expected shape: EZ-flow matches the explicit-signalling schemes at zero control bytes;")
	out.Report.addf("staticcap only survives where its offline window happens to fit")
	return out
}
