package exp

import (
	root "ezflow"
	"ezflow/internal/mobility"
)

// --------------------------------------------------------------------------
// Mobility × control-plane × workload cross product: does hop-by-hop
// flow control keep helping when the topology itself is in motion and
// the traffic is a gateway-scale client population rather than a few
// long-lived CBR flows? The paper's testbed is static and CBR; this
// experiment roams a 4x4 grid's relays under the random-waypoint model
// (gateway pinned — it is mains-powered street furniture), serves a
// downlink client population in two shapes (steady CBR and bursty
// on/off), and reruns the whole thing statically as the control column.
// Every position tick rebuilds the PHY neighbor index once for all its
// moves (phy.Channel.MoveNodes) and repairs routes through the active routing
// strategy — the same repair path scripted link failures use.

// MobilitySpeedMps is the roaming speed: 3 m/s, a brisk pedestrian —
// vehicular speeds shred a 200 m-spaced grid faster than any control
// plane can react, which is a radio problem, not a scheduling one.
const MobilitySpeedMps = 3

// MobilityClients is the downlink population size per gateway.
const MobilityClients = 8

// MobilityModels is the head-to-head set, static control column first.
var MobilityModels = []string{"off", "waypoint"}

// MobilityWorkloads is the traffic-shape axis: steady per-client CBR
// against bursty on/off (exponential 5 s on, 5 s off — each client
// averages half its peak demand but peaks collide).
var MobilityWorkloads = []string{"steady", "bursty"}

// MobilityRun is one (mode, model, workload) cell.
type MobilityRun struct {
	Mode     root.Mode
	Mobility string
	Workload string
	// AggKbps is the aggregate goodput over backbone flows and clients.
	AggKbps  float64
	Fairness float64
	// Moves and Repairs count position updates applied and
	// route-repair rounds triggered (zero in the static column).
	Moves   uint64
	Repairs uint64
}

// MobilityResult bundles the full cross product.
type MobilityResult struct {
	Runs   []*MobilityRun
	Report Report
}

// Get returns the cell for (mode, model, workload), or nil.
func (r *MobilityResult) Get(mode root.Mode, model, workload string) *MobilityRun {
	for _, run := range r.Runs {
		if run.Mode == mode && run.Mobility == model && run.Workload == workload {
			return run
		}
	}
	return nil
}

// mobilityCell identifies one run of the cross product.
type mobilityCell struct {
	mode     root.Mode
	model    string
	workload string
}

// Mobility runs the mobility head-to-head: {static, waypoint} × {steady,
// bursty} client workloads on a 4x4 grid under plain 802.11 and EZ-Flow.
// All runs fan out over the campaign worker pool; output is identical
// for any Parallel.
func Mobility(o Options) *MobilityResult {
	out := &MobilityResult{
		Report: Report{Name: "Mobility: static vs waypoint commuters under gateway client workloads"},
	}
	dur := o.dur(120)

	var cells []mobilityCell
	for _, model := range MobilityModels {
		for _, w := range MobilityWorkloads {
			for _, mode := range []root.Mode{root.Mode80211, root.ModeEZFlow} {
				cells = append(cells, mobilityCell{mode, model, w})
			}
		}
	}
	outcomes := fanOut(o, cells, func(c mobilityCell) MobilityRun {
		cellID := struct {
			Mode     root.Mode `json:"mode"`
			Model    string    `json:"model"`
			Workload string    `json:"workload"`
			SpeedMps float64   `json:"speed_mps"`
			Clients  int       `json:"clients"`
		}{c.mode, c.model, c.workload, MobilitySpeedMps, MobilityClients}
		return cachedCell(o, "exp.mobility", dur.Seconds(), cellID, func() MobilityRun {
			cfg := baseConfig(o, c.mode, dur)
			if c.model != "off" {
				cfg.Mobility = &mobility.Config{
					Model: c.model,
					Opts:  mobility.Options{SpeedMps: MobilitySpeedMps, PauseSec: 2},
				}
			}
			wl := &root.WorkloadSpec{Clients: MobilityClients, RateBps: 2e5}
			if c.workload == "bursty" {
				wl.OnMeanSec = 5
				wl.OffMeanSec = 5
			}
			cfg.Workload = wl
			sc := root.NewGrid(4, 4, cfg,
				root.FlowSpec{Flow: 1, RateBps: 3e5},
				root.FlowSpec{Flow: 2, RateBps: 3e5})
			res := sc.Run()
			run := MobilityRun{
				Mode:     c.mode,
				Mobility: c.model,
				Workload: c.workload,
				AggKbps:  res.AggKbps,
				Fairness: res.Fairness,
			}
			if st := res.MobilityStats; st != nil {
				run.Moves = st.Moves
				run.Repairs = st.Repairs
			}
			return run
		})
	})

	for i := range cells {
		run := outcomes[i]
		out.Runs = append(out.Runs, &run)
	}

	out.Report.addf("4x4 grid, %d downlink clients per gateway, relays roaming at %g m/s (waypoint, gateway pinned)",
		MobilityClients, float64(MobilitySpeedMps))
	for _, model := range MobilityModels {
		for _, w := range MobilityWorkloads {
			r80 := out.Get(root.Mode80211, model, w)
			rez := out.Get(root.ModeEZFlow, model, w)
			out.Report.addf("  %-8s %-6s: 802.11 %6.1f kb/s FI %.3f | EZ-flow %6.1f kb/s FI %.3f | %d moves, %d repairs",
				model, w, r80.AggKbps, r80.Fairness, rez.AggKbps, rez.Fairness, rez.Moves, rez.Repairs)
		}
	}
	out.Report.addf("shape: mobility costs throughput in both columns (routes churn, marginal links appear),")
	out.Report.addf("but EZ-flow's gradient survives motion — hop-by-hop control re-forms on repaired routes")
	return out
}
