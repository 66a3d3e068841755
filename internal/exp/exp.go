// Package exp defines the reproduction of every table and figure in the
// paper's evaluation (§4 experiments, §5 simulations, §6 analysis). Each
// experiment is a pure function of (seed, scale): scale < 1 shrinks the
// simulated durations proportionally so the same harness serves quick
// tests, `go test -bench`, and full paper-duration runs from cmd/ezbench.
//
// Every experiment returns a typed result plus a human-readable report that
// prints the same rows/series the paper reports, side by side with the
// paper's published numbers where applicable.
package exp

import (
	"fmt"
	"strings"

	root "ezflow"
	"ezflow/internal/buildinfo"
	"ezflow/internal/campaign"
	"ezflow/internal/fabric"
	"ezflow/internal/mesh"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// Options controls an experiment run.
type Options struct {
	Seed int64
	// Scale multiplies all simulated durations (1.0 = the paper's).
	Scale float64
	// Parallel is the maximum number of scenario runs in flight; 0 or 1
	// runs serially. Every experiment submits its independent runs
	// through the campaign pool and collects them in submission order,
	// so reports are identical for any value.
	Parallel int
	// Cache, when non-nil, is the fabric result store the registry
	// head-to-head experiments (Controllers, Routing) consult before
	// simulating a grid cell and fill afterwards — `ezbench -cache`
	// threads it here, so experiment reruns share the store campaigns
	// use. Cached cells are the scalar summary rows, keyed by
	// (experiment, cell, seed, duration) plus the code version, so a
	// release bump invalidates them exactly like campaign entries.
	Cache *fabric.Store
}

func (o Options) dur(paperSeconds float64) sim.Time {
	if o.Scale <= 0 {
		o.Scale = 0.25
	}
	s := paperSeconds * o.Scale
	if s < 30 {
		s = 30
	}
	return sim.FromSeconds(s)
}

// Report is a formatted experiment report.
type Report struct {
	Name  string
	Lines []string
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// String renders the report.
func (r *Report) String() string {
	return fmt.Sprintf("=== %s ===\n%s\n", r.Name, strings.Join(r.Lines, "\n"))
}

// saturating is the paper's CBR source rate (2 Mb/s over a 1 Mb/s channel).
const saturating = 2e6

// fanOut runs one job per item on the campaign worker pool and returns
// the results in item order. It is the bridge every experiment uses to
// parallelise its independent scenario runs.
func fanOut[A, T any](o Options, items []A, run func(A) T) []T {
	jobs := make([]func() T, len(items))
	for i, it := range items {
		it := it
		jobs[i] = func() T { return run(it) }
	}
	return campaign.RunAll(o.Parallel, jobs)
}

// cellKeyMaterial is the canonical description of one cached experiment
// grid cell. Cell must be a struct with exported fields that uniquely
// identifies the cell within the experiment.
type cellKeyMaterial struct {
	Schema      int     `json:"schema"`
	Kind        string  `json:"kind"`
	Seed        int64   `json:"seed"`
	DurationSec float64 `json:"duration_sec"`
	Cell        any     `json:"cell"`
}

// cachedCell satisfies one experiment grid cell from o.Cache, or
// computes and stores it. The cached payload is the cell's scalar
// summary row (T must round-trip through JSON), never raw simulator
// state — traces and series are recomputed, summaries are not. With no
// cache attached it degrades to a plain call.
func cachedCell[T any](o Options, kind string, durSec float64, cell any, compute func() T) T {
	if o.Cache == nil {
		return compute()
	}
	key, err := fabric.NewKey(buildinfo.Release, cellKeyMaterial{
		Schema: 1, Kind: kind, Seed: o.Seed, DurationSec: durSec, Cell: cell,
	})
	if err != nil {
		return compute()
	}
	var out T
	if o.Cache.Get(key, &out) {
		return out
	}
	v := compute()
	o.Cache.Put(key, v) //nolint:errcheck // cache writes are best-effort
	return v
}

// baseConfig returns the shared simulation configuration.
func baseConfig(o Options, mode root.Mode, duration sim.Time) root.Config {
	cfg := root.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.Mode = mode
	cfg.Duration = duration
	return cfg
}

// --------------------------------------------------------------------------
// Figure 1: buffer evolution of 3-hop vs 4-hop chains under plain 802.11.

// Fig1Result holds per-chain relay queue statistics.
type Fig1Result struct {
	// MeanQueue[hops][node] and MaxQueue[hops][node] for relays 1..hops-1.
	MeanQueue map[int]map[int]float64
	MaxQueue  map[int]map[int]float64
	// ThroughputKbps per chain length.
	ThroughputKbps map[int]float64
	Report         Report
}

// Fig1 reproduces Figure 1: the 3-hop network is stable while the 4-hop
// network is turbulent, with the first relay's buffer building up to
// saturation.
func Fig1(o Options) *Fig1Result {
	r := &Fig1Result{
		MeanQueue:      make(map[int]map[int]float64),
		MaxQueue:       make(map[int]map[int]float64),
		ThroughputKbps: make(map[int]float64),
		Report:         Report{Name: "Figure 1: buffer evolution, 3-hop vs 4-hop, plain 802.11"},
	}
	dur := o.dur(1800)
	chains := []int{3, 4}
	results := fanOut(o, chains, func(hops int) *root.Result {
		cfg := baseConfig(o, root.Mode80211, dur)
		sc := root.NewChain(hops, cfg, root.FlowSpec{Flow: 1, RateBps: saturating})
		return sc.Run()
	})
	for i, hops := range chains {
		res := results[i]
		r.MeanQueue[hops] = make(map[int]float64)
		r.MaxQueue[hops] = make(map[int]float64)
		for i := 1; i < hops; i++ {
			tr := res.QueueTraces[pkt.NodeID(i)]
			r.MeanQueue[hops][i] = tr.Mean()
			r.MaxQueue[hops][i] = tr.Max()
		}
		r.ThroughputKbps[hops] = res.Flows[1].MeanThroughputKbps
		r.Report.addf("%d-hop: throughput %.1f kb/s", hops, r.ThroughputKbps[hops])
		for i := 1; i < hops; i++ {
			r.Report.addf("  node %d buffer: mean %.1f max %.0f pkts",
				i, r.MeanQueue[hops][i], r.MaxQueue[hops][i])
		}
	}
	r.Report.addf("paper shape: 3-hop buffers stay low; 4-hop first relay builds to the 50-pkt cap")
	return r
}

// --------------------------------------------------------------------------
// Table 1: per-link capacities of flow F1 on the testbed.

// Table1Result holds measured single-link saturation throughputs.
type Table1Result struct {
	MeanKbps []float64
	StdKbps  []float64
	Report   Report
}

// PaperTable1Kbps are the published link capacities for l0..l6.
var PaperTable1Kbps = []float64{845, 672, 408, 748, 746, 805, 648}

// Table1 measures each link of F1 in isolation, exactly as the paper's
// Table 1 does over 1200 s.
func Table1(o Options) *Table1Result {
	r := &Table1Result{Report: Report{Name: "Table 1: link capacities of F1 (testbed)"}}
	dur := o.dur(1200)
	links := []int{0, 1, 2, 3, 4, 5, 6}
	results := fanOut(o, links, func(i int) *root.Result {
		cfg := baseConfig(o, root.Mode80211, dur)
		sc := root.NewScenario(cfg, func(eng *sim.Engine) *mesh.Mesh {
			m := mesh.Testbed(eng, cfg.PHY, cfg.MAC)
			// Route a private probe flow over just this link.
			m.SetRoute(99, []pkt.NodeID{pkt.NodeID(i), pkt.NodeID(i + 1)})
			return m
		}, root.FlowSpec{Flow: 99, RateBps: saturating})
		return sc.Run()
	})
	for i, res := range results {
		fr := res.Flows[99]
		r.MeanKbps = append(r.MeanKbps, fr.MeanThroughputKbps)
		r.StdKbps = append(r.StdKbps, fr.StdThroughputKbps)
		r.Report.addf("l%d: measured %6.0f ± %4.0f kb/s   (paper: %4.0f kb/s)",
			i, fr.MeanThroughputKbps, fr.StdThroughputKbps, PaperTable1Kbps[i])
	}
	r.Report.addf("shape check: l2 is the bottleneck in both")
	return r
}

// --------------------------------------------------------------------------
// Figure 4 + Table 2: testbed measurements with and without EZ-Flow.

// TestbedScenario names the three workloads of §4.3.
type TestbedScenario int

const (
	// F1Alone runs only the 7-hop flow F1.
	F1Alone TestbedScenario = iota
	// F2Alone runs only the 4-hop flow F2.
	F2Alone
	// ParkingLot runs both flows sharing F1's tail (§4.3's third case).
	ParkingLot
)

// String returns the paper's name for the workload.
func (s TestbedScenario) String() string {
	switch s {
	case F1Alone:
		return "F1 alone"
	case F2Alone:
		return "F2 alone"
	default:
		return "F1+F2 parking lot"
	}
}

// TestbedRun is the outcome of one testbed workload under one mode.
type TestbedRun struct {
	Mode      root.Mode
	Scenario  TestbedScenario
	FlowKbps  map[pkt.FlowID]float64
	FlowStd   map[pkt.FlowID]float64
	Fairness  float64
	MeanQueue map[pkt.NodeID]float64
	FinalCW   map[string]int
}

// Fig4Table2Result bundles all six runs.
type Fig4Table2Result struct {
	Runs   []*TestbedRun
	Report Report
}

// Get returns the run for (scenario, mode).
func (r *Fig4Table2Result) Get(s TestbedScenario, m root.Mode) *TestbedRun {
	for _, run := range r.Runs {
		if run.Scenario == s && run.Mode == m {
			return run
		}
	}
	return nil
}

// Fig4Table2 reproduces the testbed evaluation: buffer occupancy traces
// (Figure 4) and the throughput/fairness table (Table 2) for F1 alone, F2
// alone, and the parking-lot combination, with and without EZ-Flow. The
// testbed's MadWifi limitation is reproduced with a 2^10 hardware cap.
func Fig4Table2(o Options) *Fig4Table2Result {
	out := &Fig4Table2Result{Report: Report{Name: "Figure 4 + Table 2: testbed, ±EZ-Flow"}}
	dur := o.dur(1800)
	type cell struct {
		scen TestbedScenario
		mode root.Mode
	}
	var cells []cell
	for _, scen := range []TestbedScenario{F1Alone, F2Alone, ParkingLot} {
		for _, mode := range []root.Mode{root.Mode80211, root.ModeEZFlow} {
			cells = append(cells, cell{scen, mode})
		}
	}
	testbedFlows := func(scen TestbedScenario) []root.FlowSpec {
		var flows []root.FlowSpec
		if scen == F1Alone || scen == ParkingLot {
			flows = append(flows, root.FlowSpec{Flow: 1, RateBps: saturating})
		}
		if scen == F2Alone || scen == ParkingLot {
			flows = append(flows, root.FlowSpec{Flow: 2, RateBps: saturating})
		}
		return flows
	}
	results := fanOut(o, cells, func(c cell) *root.Result {
		cfg := baseConfig(o, c.mode, dur)
		cfg.MAC.HardwareCWCap = 1 << 10 // MadWifi constraint (§4.1)
		sc := root.NewTestbed(cfg, testbedFlows(c.scen)...)
		return sc.Run()
	})
	for i, c := range cells {
		res := results[i]
		flows := testbedFlows(c.scen)
		run := &TestbedRun{
			Mode: c.mode, Scenario: c.scen,
			FlowKbps:  make(map[pkt.FlowID]float64),
			FlowStd:   make(map[pkt.FlowID]float64),
			Fairness:  res.Fairness,
			MeanQueue: res.MeanQueue,
			FinalCW:   res.FinalCW,
		}
		for _, fs := range flows {
			fr := res.Flows[fs.Flow]
			run.FlowKbps[fs.Flow] = fr.MeanThroughputKbps
			run.FlowStd[fs.Flow] = fr.StdThroughputKbps
		}
		out.Runs = append(out.Runs, run)
		line := fmt.Sprintf("%-18s %-8s:", c.scen, c.mode)
		for _, fs := range flows {
			line += fmt.Sprintf("  %v %6.1f±%5.1f kb/s", fs.Flow,
				run.FlowKbps[fs.Flow], run.FlowStd[fs.Flow])
		}
		if c.scen == ParkingLot {
			line += fmt.Sprintf("  FI=%.2f", run.Fairness)
		}
		out.Report.addf("%s", line)
	}
	out.Report.addf("paper: F1 119->148, F2 157->185; parking lot FI 0.55->0.96 with EZ-flow")
	// Figure 4 view: first-relay buffers.
	for _, scen := range []TestbedScenario{F1Alone, F2Alone} {
		plain := out.Get(scen, root.Mode80211)
		ezr := out.Get(scen, root.ModeEZFlow)
		var nodes []pkt.NodeID
		if scen == F1Alone {
			nodes = []pkt.NodeID{1, 2, 3}
		} else {
			nodes = []pkt.NodeID{4, 5, 6}
		}
		for _, n := range nodes {
			out.Report.addf("Fig4 %-9s N%-2d mean buffer: 802.11 %5.1f -> EZ-flow %5.1f",
				scen, n, plain.MeanQueue[n], ezr.MeanQueue[n])
		}
	}
	return out
}
