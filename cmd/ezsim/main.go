// Command ezsim runs one mesh scenario and prints per-flow statistics plus
// optional CSV traces (queue occupancy, throughput, delay, contention
// windows) for plotting.
//
// Usage:
//
//	ezsim -topology chain -hops 4 -mode ezflow -duration 600 -seed 1
//	ezsim -topology scenario1 -mode 802.11 -trace-dir /tmp/traces
//	ezsim -topology testbed -mode ezflow -cap 1024
//	ezsim -topology grid -grid-w 4 -grid-h 4 -mode ezflow
//	ezsim -topology random -nodes 12 -radius 500 -seed 3
//	ezsim -scenario linkfailure.json
//	ezsim -scenario linkfailure.json -mode 802.11 -seed 7
//	ezsim -topology chain -hops 4 -controller backpressure
//
// Topologies: chain (with -hops), testbed, scenario1, scenario2, tree,
// grid (with -grid-w/-grid-h), random (with -nodes/-radius; placement is
// seeded by -seed).
//
// The flags that share a name with a campaign sweep axis (the control
// plane, routing, rate, window cap, mobility and workload flags) are
// declared from the rows of the campaign package's axis table: each takes
// the values of its axis and writes the scenario spec as a campaign point
// sweeping it does. `ezsim -h` lists them with their values:
//
//	ezsim -topology grid -grid-w 4 -grid-h 4 -mobility waypoint -speed 3
//	ezsim -scenario examples/mobility/waypoint.json -mobility off
//	ezsim -topology grid -mobility waypoint -clients 8
//
// Observability (see internal/obs and "Inspecting a run" in README.md):
// -obs serves live metrics, progress and pprof over HTTP while the run
// executes (with -obs-hold keeping the endpoint up afterwards);
// -flightrec dumps the last -flightrec-size packet-lifecycle events as
// JSONL, filterable by -flightrec-flow and -flightrec-node; -metrics
// exports the final metrics snapshot as JSON; -cpuprofile and
// -memprofile write Go profiles. None of these change a run's results.
//
// Every run is built from one scenario.Spec (see internal/scenario):
// -scenario loads a declarative JSON file — topology, flows, and a
// dynamics timeline of timed perturbations (link flaps, node churn,
// channel degradation, traffic steps) — and without it the topology and
// run flags describe the spec, defaults included. Either way, every
// run-shaping flag passed explicitly then overrides the matching spec
// field: the topology flags, -seed, -duration and the axis flags above
// (-rate sets every declared flow's rate). -q always sets the penalty
// factor (Config.Ctl.PenaltyQ, in (0,1]). Runs with faults print
// recovery metrics and the applied-event log.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ezflow"
	"ezflow/internal/buildinfo"
	"ezflow/internal/campaign"
	"ezflow/internal/plot"
	"ezflow/internal/scenario"
	"ezflow/internal/stats"
)

// invocation is one ezsim command line resolved into a run.
type invocation struct {
	spec     *scenario.Spec
	penaltyQ float64
	traceDir string
	plot     bool
	version  bool
	obs      obsOpts
}

// parseArgs resolves a command line into a validated scenario spec: the
// -scenario file, or a spec built from the topology and run flags, with
// every run-shaping flag passed explicitly applied on top.
func parseArgs(args []string) (*invocation, error) {
	fs := flag.NewFlagSet("ezsim", flag.ContinueOnError)
	var inv invocation
	var (
		topology = fs.String("topology", "chain", scenario.Topologies.NamesList()+"; built-in topologies:\n"+scenario.Topologies.Usage())
		scenFile = fs.String("scenario", "", "JSON scenario file (topology+flows+dynamics); flags passed explicitly override its fields")
		hops     = fs.Int("hops", 4, "number of hops for the chain topology")
		gridW    = fs.Int("grid-w", 4, "grid width for -topology grid")
		gridH    = fs.Int("grid-h", 4, "grid height for -topology grid")
		nodes    = fs.Int("nodes", 12, "node count for -topology random")
		radius   = fs.Float64("radius", 0, "disk radius in metres for -topology random (0 = auto)")
		edgeLoss = fs.Float64("edge-loss", 0, "edge-of-range loss ceiling in [0,1) for -topology random (0 = loss-free links)")
		duration = fs.Float64("duration", 600, "simulated seconds")
		seed     = fs.Int64("seed", 1, "random seed")
	)
	// The run-shaping flags a scenario-file campaign may sweep come from
	// its axis table, parsed and applied exactly as the axis is.
	applyAxes := campaign.SpecFlags(fs, map[string]string{"mode": "ezflow", "rate": "2e6", "cap": "0"})
	fs.Float64Var(&inv.penaltyQ, "q", 1.0/128, "penalty factor in (0,1] for -mode penalty")
	fs.StringVar(&inv.traceDir, "trace-dir", "", "write CSV traces into this directory")
	fs.BoolVar(&inv.plot, "plot", false, "render ASCII charts of queues, throughput and cw")
	fs.BoolVar(&inv.version, "version", false, "print version and exit")
	inv.obs.registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if inv.version {
		return &inv, nil
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	spec := &scenario.Spec{}
	if *scenFile != "" {
		var err error
		if spec, err = scenario.Load(*scenFile); err != nil {
			return nil, err
		}
	} else {
		// Without a file, the topology and run flags describe the whole
		// spec, defaults included.
		for _, name := range []string{"topology", "hops", "grid-w", "grid-h", "nodes", "radius", "edge-loss", "mode", "seed", "duration", "cap", "rate"} {
			set[name] = true
		}
	}
	t := &spec.Topology
	for name, apply := range map[string]func(){
		"topology":  func() { t.Kind = *topology },
		"hops":      func() { t.Hops = *hops },
		"grid-w":    func() { t.Width = *gridW },
		"grid-h":    func() { t.Height = *gridH },
		"nodes":     func() { t.Nodes = *nodes },
		"radius":    func() { t.Radius = *radius },
		"edge-loss": func() { t.EdgeLoss = *edgeLoss },
		"seed":      func() { spec.Seed = *seed },
		"duration":  func() { spec.DurationSec = *duration },
	} {
		if set[name] {
			apply()
		}
	}
	if err := applyAxes(spec, set); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if inv.penaltyQ <= 0 || inv.penaltyQ > 1 {
		return nil, fmt.Errorf("-q %g out of (0,1]", inv.penaltyQ)
	}
	inv.spec = spec
	return &inv, nil
}

// build wires the resolved spec into a runnable scenario.
func (inv *invocation) build() (*ezflow.Scenario, error) {
	cfg, err := inv.spec.Config()
	if err != nil {
		return nil, err
	}
	cfg.Ctl.PenaltyQ = inv.penaltyQ
	return inv.spec.BuildWith(cfg)
}

func main() {
	inv, err := parseArgs(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fatalf("%v", err)
	}
	if inv.version {
		fmt.Println("ezsim " + buildinfo.String())
		return
	}
	sc, err := inv.build()
	if err != nil {
		fatalf("%v", err)
	}
	if inv.spec.Name != "" {
		fmt.Printf("scenario %q\n", inv.spec.Name)
	}
	res := inv.obs.run(sc)
	printSummary(res)
	if inv.plot {
		printPlots(res)
	}
	if inv.traceDir != "" {
		if err := writeTraces(res, inv.traceDir); err != nil {
			fatalf("writing traces: %v", err)
		}
		fmt.Printf("traces written to %s\n", inv.traceDir)
	}
}

func printSummary(res *ezflow.Result) {
	rt := ""
	if res.Cfg.Routing != "" {
		rt = " routing=" + res.Cfg.Routing
	}
	if res.Cfg.Controller != "" {
		fmt.Printf("controller=%s%s duration=%v seed=%d\n", res.Cfg.Controller,
			rt, res.Cfg.Duration, res.Cfg.Seed)
	} else {
		fmt.Printf("mode=%v%s duration=%v seed=%d\n", res.Cfg.Mode,
			rt, res.Cfg.Duration, res.Cfg.Seed)
	}
	var flows []ezflow.FlowID
	for f := range res.Flows {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	for _, f := range flows {
		fr := res.Flows[f]
		fmt.Printf("%v: %7.1f ± %5.1f kb/s   delay mean %6.3fs p95 %6.3fs max %6.3fs   (%d pkts)\n",
			f, fr.MeanThroughputKbps, fr.StdThroughputKbps,
			fr.MeanDelaySec, fr.P95DelaySec, fr.MaxDelaySec, fr.Delivered)
	}
	if len(flows) > 1 {
		fmt.Printf("aggregate %.1f kb/s, Jain FI %.3f\n", res.AggKbps, res.Fairness)
	}
	var nodes []ezflow.NodeID
	for n := range res.MeanQueue {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	fmt.Print("mean queue: ")
	for _, n := range nodes {
		if res.MeanQueue[n] >= 0.05 {
			fmt.Printf("%v=%.1f ", n, res.MeanQueue[n])
		}
	}
	fmt.Println()
	if len(res.FinalCW) > 0 {
		var keys []string
		for k := range res.FinalCW {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Print("final cw: ")
		for _, k := range keys {
			fmt.Printf("%s=%d ", k, res.FinalCW[k])
		}
		fmt.Println()
	}
	if res.OverheadBytes > 0 {
		fmt.Printf("message-passing overhead: %d bytes\n", res.OverheadBytes)
	}
	if st := res.MobilityStats; st != nil {
		fmt.Printf("mobility: %d ticks, %d moves (%d deferred), %d route repairs\n",
			st.Ticks, st.Moves, st.Deferred, st.Repairs)
	}
	if len(res.DynamicsLog) > 0 {
		fmt.Println("dynamics:")
		for _, ev := range res.DynamicsLog {
			fmt.Printf("  [%v] %s\n", ev.At, ev.Desc)
		}
	}
	if st := res.Stability; st != nil {
		fmt.Printf("stability (fault at %v, tolerance %.0f%%):\n", st.FaultAt, st.Tolerance*100)
		var flows []ezflow.FlowID
		for f := range st.RecoverySec {
			flows = append(flows, f)
		}
		sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
		for _, f := range flows {
			rec := "never recovered"
			if r := st.RecoverySec[f]; r >= 0 {
				rec = fmt.Sprintf("recovered in %.1fs", r)
			}
			fmt.Printf("  %v: pre-fault %.1f kb/s, %s\n", f, st.PreFaultKbps[f], rec)
		}
		fmt.Printf("  max relay excursion %.0f pkts, tail max %.0f pkts\n",
			st.MaxQueueExcursion, st.TailMaxQueuePkts)
	}
}

// printPlots renders the figures of the paper for this run: relay buffer
// evolution (Figs. 1 and 4), per-flow throughput (Fig. 6), and the
// contention-window staircases (Figs. 8 and 11).
func printPlots(res *ezflow.Result) {
	var queues []*stats.Series
	var nodes []ezflow.NodeID
	for n := range res.QueueTraces {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, n := range nodes {
		s := res.QueueTraces[n]
		if s.Mean() >= 0.5 { // skip idle nodes to keep the chart readable
			s.Name = fmt.Sprintf("%v", n)
			queues = append(queues, s)
		}
	}
	fmt.Print(plot.Chart("\nbuffer evolution (cf. paper Figs. 1/4)",
		plot.Options{YLabel: "queue [pkts]"}, queues...))

	var thr []*stats.Series
	var flows []ezflow.FlowID
	for f := range res.Flows {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	for _, f := range flows {
		s := res.Flows[f].Throughput
		s.Name = fmt.Sprintf("%v", f)
		thr = append(thr, s)
	}
	fmt.Print(plot.Chart("\nthroughput (cf. paper Fig. 6)",
		plot.Options{YLabel: "kb/s"}, thr...))

	if len(res.CWTraces) > 0 {
		fmt.Print(plot.CWStaircase("\ncontention windows (cf. paper Figs. 8/11)",
			plot.Options{}, res.CWTraces))
	}
}

// writeTraces writes the run's traces into dir, one CSV file each:
// queue_<node>.csv, throughput_<flow>.csv and delay_<flow>.csv as
// "t_seconds,value", and cw_<node>_to_<successor>.csv as "t_seconds,cw".
func writeTraces(res *ezflow.Result, dir string) error {
	files := map[string]*bytes.Buffer{}
	series := func(name string, s *stats.Series) {
		b := bytes.NewBufferString("t_seconds,value\n")
		for _, p := range s.Points {
			fmt.Fprintf(b, "%.3f,%g\n", p.T.Seconds(), p.V)
		}
		files[name] = b
	}
	for n, s := range res.QueueTraces {
		series(fmt.Sprintf("queue_%v.csv", n), s)
	}
	for f, fr := range res.Flows {
		series(fmt.Sprintf("throughput_%v.csv", f), fr.Throughput)
		series(fmt.Sprintf("delay_%v.csv", f), fr.Delay)
	}
	for key, tr := range res.CWTraces {
		b := bytes.NewBufferString("t_seconds,cw\n")
		for _, p := range tr {
			fmt.Fprintf(b, "%.3f,%d\n", p.At.Seconds(), p.CW)
		}
		files["cw_"+strings.ReplaceAll(key, "->", "_to_")+".csv"] = b
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b.Bytes(), 0o666); err != nil {
			return err
		}
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ezsim: "+format+"\n", args...)
	os.Exit(1)
}
