package exp

import (
	"fmt"
	"sort"

	root "ezflow"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// Period is a time window during which a fixed set of flows is active.
type Period struct {
	Name     string
	From, To sim.Time
	Flows    []pkt.FlowID
}

// PeriodStats summarises one flow in one period under one mode.
type PeriodStats struct {
	MeanKbps, StdKbps float64
	MeanDelaySec      float64
}

// ScenarioResult is the outcome of one §5 simulation scenario under both
// modes.
type ScenarioResult struct {
	Periods []Period
	// Stats[mode][period][flow]
	Stats map[root.Mode]map[string]map[pkt.FlowID]PeriodStats
	// Fairness[mode][period]
	Fairness map[root.Mode]map[string]float64
	// FinalCW and CWTraces from the EZ-Flow run.
	FinalCW  map[string]int
	CWTraces map[string][]struct {
		AtSec float64
		CW    int
	}
	Report Report
}

func newScenarioResult(name string, periods []Period) *ScenarioResult {
	return &ScenarioResult{
		Periods:  periods,
		Stats:    make(map[root.Mode]map[string]map[pkt.FlowID]PeriodStats),
		Fairness: make(map[root.Mode]map[string]float64),
		FinalCW:  make(map[string]int),
		CWTraces: make(map[string][]struct {
			AtSec float64
			CW    int
		}),
		Report: Report{Name: name},
	}
}

// runScenario executes one topology under both modes and collects the
// per-period statistics of Figures 6/7/10 and Tables 2/3.
func runScenario(o Options, build func(root.Config, ...root.FlowSpec) *root.Scenario,
	flows []root.FlowSpec, periods []Period, res *ScenarioResult) {
	total := sim.Time(0)
	for _, p := range periods {
		if p.To > total {
			total = p.To
		}
	}
	modes := []root.Mode{root.Mode80211, root.ModeEZFlow}
	runs := fanOut(o, modes, func(mode root.Mode) *root.Result {
		cfg := baseConfig(o, mode, total)
		return build(cfg, flows...).Run()
	})
	for i, mode := range modes {
		r := runs[i]
		res.Stats[mode] = make(map[string]map[pkt.FlowID]PeriodStats)
		res.Fairness[mode] = make(map[string]float64)
		for _, p := range periods {
			res.Stats[mode][p.Name] = make(map[pkt.FlowID]PeriodStats)
			for _, f := range p.Flows {
				mean, std := r.FlowWindowKbps(f, p.From, p.To)
				res.Stats[mode][p.Name][f] = PeriodStats{
					MeanKbps:     mean,
					StdKbps:      std,
					MeanDelaySec: r.FlowWindowDelay(f, p.From, p.To),
				}
			}
			res.Fairness[mode][p.Name] = r.FairnessWindow(p.From, p.To, p.Flows...)
		}
		if mode == root.ModeEZFlow {
			res.FinalCW = r.FinalCW
			for key, tr := range r.CWTraces {
				for _, pt := range tr {
					res.CWTraces[key] = append(res.CWTraces[key], struct {
						AtSec float64
						CW    int
					}{pt.At.Seconds(), pt.CW})
				}
			}
		}
	}
	// Render the report: one block per period.
	for _, p := range periods {
		res.Report.addf("period %-12s [%4.0f, %4.0f)s:", p.Name, p.From.Seconds(), p.To.Seconds())
		for _, f := range p.Flows {
			a := res.Stats[root.Mode80211][p.Name][f]
			b := res.Stats[root.ModeEZFlow][p.Name][f]
			res.Report.addf("  %v: 802.11 %6.1f±%5.1f kb/s delay %6.2fs | EZ-flow %6.1f±%5.1f kb/s delay %6.2fs",
				f, a.MeanKbps, a.StdKbps, a.MeanDelaySec, b.MeanKbps, b.StdKbps, b.MeanDelaySec)
		}
		if len(p.Flows) > 1 {
			res.Report.addf("  FI: 802.11 %.2f | EZ-flow %.2f",
				res.Fairness[root.Mode80211][p.Name], res.Fairness[root.ModeEZFlow][p.Name])
		}
	}
	var keys []string
	for k := range res.FinalCW {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	line := "final cw (EZ-flow):"
	for _, k := range keys {
		line += fmt.Sprintf(" %s=%d", k, res.FinalCW[k])
	}
	res.Report.addf("%s", line)
}

// Scenario1 reproduces §5.2 (Figures 6, 7 and 8): the two-flow merge
// topology with F1 active throughout and F2 joining mid-run.
//
// Paper schedule: F1 from 5 s to 2504 s; F2 from 605 s to 1804 s. The
// scale option shrinks all of these proportionally.
func Scenario1(o Options) *ScenarioResult {
	s := o.Scale
	if s <= 0 {
		s = 0.25
	}
	t := func(paper float64) sim.Time { return sim.FromSeconds(paper * s) }
	periods := []Period{
		{Name: "F1-alone-1", From: t(5), To: t(605), Flows: []pkt.FlowID{1}},
		{Name: "F1+F2", From: t(605), To: t(1805), Flows: []pkt.FlowID{1, 2}},
		{Name: "F1-alone-2", From: t(1805), To: t(2504), Flows: []pkt.FlowID{1}},
	}
	flows := []root.FlowSpec{
		{Flow: 1, RateBps: saturating, Start: t(5), Stop: t(2504)},
		{Flow: 2, RateBps: saturating, Start: t(605), Stop: t(1804)},
	}
	res := newScenarioResult("Scenario 1 (Figs 6-8): 2 merging 8-hop flows", periods)
	runScenario(o, root.NewScenario1, flows, periods, res)
	res.Report.addf("paper: F1 alone 153.2 -> 183.9 kb/s (+20%%), delay 4.1s -> 0.2s;")
	res.Report.addf("       both flows 76.5 -> 82.1 kb/s avg; relays at cw 2^4, sources up to 2^11")
	return res
}

// Scenario2 reproduces §5.3 (Figures 10, 11 and Table 3): the three-flow
// topology with a hidden-node pair, flows joining and leaving.
//
// Paper schedule: F1 and F2 from 5 s; F3 joins at 1805 s; F2 and F3 leave
// at 3605 s; run ends at 4500 s.
func Scenario2(o Options) *ScenarioResult {
	s := o.Scale
	if s <= 0 {
		s = 0.25
	}
	t := func(paper float64) sim.Time { return sim.FromSeconds(paper * s) }
	periods := []Period{
		{Name: "F1+F2", From: t(5), To: t(1805), Flows: []pkt.FlowID{1, 2}},
		{Name: "F1+F2+F3", From: t(1805), To: t(3605), Flows: []pkt.FlowID{1, 2, 3}},
		{Name: "F1-alone", From: t(3605), To: t(4500), Flows: []pkt.FlowID{1}},
	}
	flows := []root.FlowSpec{
		{Flow: 1, RateBps: saturating, Start: t(5), Stop: t(4500)},
		{Flow: 2, RateBps: saturating, Start: t(5), Stop: t(3605)},
		{Flow: 3, RateBps: saturating, Start: t(1805), Stop: t(3605)},
	}
	res := newScenarioResult("Scenario 2 (Figs 10-11, Table 3): 3 flows, hidden sources", periods)
	runScenario(o, root.NewScenario2, flows, periods, res)
	res.Report.addf("paper Table 3: (F1,F2) 145.6/39.9 FI 0.75 -> 89.9/100.3 FI 1.00;")
	res.Report.addf("  three flows 129.9/31.0/27.3 FI 0.64 -> 29.5/139.7/135.4 FI 0.80 (+62%% cumulative);")
	res.Report.addf("  F1 alone 150.0 -> 179.9 kb/s")
	return res
}
