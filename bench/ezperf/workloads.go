package main

import (
	"fmt"
	"runtime"

	"ezflow"
	"ezflow/internal/campaign"
	"ezflow/internal/mesh"
	"ezflow/internal/mobility"
	"ezflow/internal/sim"
)

// builder builds a run's mesh on the engine ezflow.NewScenario hands it.
// Passing it as a callback is what lets ezperf time the topology build
// apart from the rest of the scenario wiring.
type builder func(eng *sim.Engine, cfg ezflow.Config) *mesh.Mesh

// runSpec is one scenario run: the generated config, the mesh builder and
// the explicit flows.
type runSpec struct {
	cfg   ezflow.Config
	build builder
	flows []ezflow.FlowSpec
}

// workload is one named input set. Every pass runs the same inputs, which
// are a pure function of the seed; small shrinks them for the self-test.
type workload struct {
	name string
	why  string
	// runs lists the scenario runs of one pass, executed in order on one
	// goroutine (a closed loop: the next run starts when the last ends).
	runs func(seed int64, small bool) []runSpec
	// spec, when non-nil, is the campaign the pass additionally runs cold,
	// warm and sharded; runs is then that campaign's grid.
	spec func(seed int64, small bool) campaign.Spec
}

// workloads are the benchmark's inputs, chosen to stress different
// layers: paper is bound by the event loop, disk by topology set-up and
// PHY fan-out, mobile by route repair, campaign by the campaign fabric.
var workloads = []*workload{
	{
		name: "paper",
		why:  "the reproduction's own traffic: 4-hop chain, Scenarios 1 and 2, testbed x 802.11/EZ-flow at the 600-s horizon; event-loop bound",
		runs: paperRuns,
	},
	{
		name: "disk",
		why:  "96 short EZ-flow runs on 48 random placements each of 200 and 400 nodes: set-up heavy, with wide PHY fan-out",
		runs: diskRuns,
	},
	{
		name: "mobile",
		why:  "200-node waypoint disks serving bursty downlink clients: bound by route repair and PHY index moves",
		runs: mobileRuns,
	},
	{
		name: "campaign",
		why:  "a 48-run sweep run directly, then cold, warm from the result store and sharded across worker processes",
		runs: func(seed int64, small bool) []runSpec { return gridRuns(campaignSpec(seed, small)) },
		spec: campaignSpec,
	},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, disk, mobile or campaign)", name)
}

// subSeed derives the i-th run seed from the benchmark seed (splitmix64),
// so the simulator only ever sees seeds ezperf generated.
func subSeed(seed int64, i int) int64 {
	x := uint64(seed) + uint64(i+1)*0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

// saturating is the paper's saturating CBR source rate.
const saturating = 2e6

func chain(hops int) builder {
	return func(eng *sim.Engine, cfg ezflow.Config) *mesh.Mesh {
		return mesh.Chain(eng, hops, cfg.PHY, cfg.MAC)
	}
}

func grid(side int) builder {
	return func(eng *sim.Engine, cfg ezflow.Config) *mesh.Mesh {
		return mesh.Grid(eng, side, side, cfg.PHY, cfg.MAC)
	}
}

// disk is the random-disk builder behind ezflow.NewRandom, placing the
// nodes from the given seed.
func disk(n int, placement int64) builder {
	return func(eng *sim.Engine, cfg ezflow.Config) *mesh.Mesh {
		return mesh.RandomDiskLossy(eng, n, 0, placement, 0, cfg.PHY, cfg.MAC)
	}
}

// layoutSeed seeds the node placements of the disk and mobile workloads
// and the mobile trajectories. They are the same for every benchmark
// seed, which drives each run's engine (backoffs, losses) and traffic
// schedules. A random disk's build cost swings severalfold with its
// placement, through connectivity resampling, so seeded placements would
// make set-up time a property of the seed; at 400 nodes some placement
// seeds even exhaust the builder's resampling budget. Every pass builds
// the whole fixed set, so a placement that failed to connect would show
// as a failed run.
const layoutSeed = 2

// paperRuns is {4-hop chain, Scenario 1, Scenario 2, testbed} x {802.11,
// EZ-flow} x 2 seeds. The merge scenarios keep the paper's flow schedules
// (§5.2, §5.3), scaled onto the horizon.
func paperRuns(seed int64, small bool) []runSpec {
	dur, seeds := 600*ezflow.Second, 2
	if small {
		dur, seeds = 20*ezflow.Second, 1
	}
	at := func(paper, paperEnd float64) ezflow.Time {
		return ezflow.Time(paper / paperEnd * float64(dur))
	}
	flow := func(id ezflow.FlowID, start, stop ezflow.Time) ezflow.FlowSpec {
		return ezflow.FlowSpec{Flow: id, RateBps: saturating, Start: start, Stop: stop}
	}
	topologies := []struct {
		build builder
		flows []ezflow.FlowSpec
	}{
		{chain(4), []ezflow.FlowSpec{flow(1, 0, 0)}},
		{func(eng *sim.Engine, cfg ezflow.Config) *mesh.Mesh { return mesh.Scenario1(eng, cfg.PHY, cfg.MAC) },
			[]ezflow.FlowSpec{flow(1, at(5, 2504), at(2504, 2504)), flow(2, at(605, 2504), at(1804, 2504))}},
		{func(eng *sim.Engine, cfg ezflow.Config) *mesh.Mesh { return mesh.Scenario2(eng, cfg.PHY, cfg.MAC) },
			[]ezflow.FlowSpec{flow(1, at(5, 4500), at(4500, 4500)), flow(2, at(5, 4500), at(3605, 4500)), flow(3, at(1805, 4500), at(3605, 4500))}},
		{func(eng *sim.Engine, cfg ezflow.Config) *mesh.Mesh { return mesh.Testbed(eng, cfg.PHY, cfg.MAC) },
			[]ezflow.FlowSpec{flow(1, 0, 0), flow(2, 0, 0)}},
	}
	var runs []runSpec
	for i := 0; i < seeds; i++ {
		for _, t := range topologies {
			for _, mode := range []ezflow.Mode{ezflow.Mode80211, ezflow.ModeEZFlow} {
				cfg := ezflow.DefaultConfig()
				cfg.Seed = subSeed(seed, i)
				cfg.Duration = dur
				cfg.Mode = mode
				runs = append(runs, runSpec{cfg: cfg, build: t.build, flows: t.flows})
			}
		}
	}
	return runs
}

// diskRuns is the DiskScaling benchmark's run (EZ-flow, rim flow to the
// gateway, 5-s horizon, 1-s bins) over 48 fixed placements each of 200
// and 400 nodes.
func diskRuns(seed int64, small bool) []runSpec {
	sizes, placements, dur := []int{200, 400}, 48, 5*ezflow.Second
	if small {
		sizes, placements, dur = []int{50}, 2, 2*ezflow.Second
	}
	var runs []runSpec
	for _, n := range sizes {
		for i := 0; i < placements; i++ {
			cfg := ezflow.DefaultConfig()
			cfg.Seed = subSeed(seed, n*1000+i)
			cfg.Duration = dur
			cfg.Bin = ezflow.Second
			cfg.Mode = ezflow.ModeEZFlow
			runs = append(runs, runSpec{cfg: cfg, build: disk(n, subSeed(layoutSeed, n*1000+i)),
				flows: []ezflow.FlowSpec{{Flow: 1, RateBps: saturating}}})
		}
	}
	return runs
}

// mobileRuns puts two fixed EZ-flow 200-node disks in motion along fixed
// trajectories (random waypoint at 3 m/s, 2-s pauses, 0.5-s ticks,
// gateway pinned) under 16 on/off downlink clients (5 s on, 5 s off).
func mobileRuns(seed int64, small bool) []runSpec {
	nodes, clients, dur, seeds := 200, 16, 60*ezflow.Second, 2
	if small {
		nodes, clients, dur, seeds = 40, 4, 10*ezflow.Second, 1
	}
	var runs []runSpec
	for i := 0; i < seeds; i++ {
		cfg := ezflow.DefaultConfig()
		cfg.Seed = subSeed(seed, i)
		cfg.Duration = dur
		cfg.Mode = ezflow.ModeEZFlow
		cfg.Mobility = &mobility.Config{
			Model:   "waypoint",
			Opts:    mobility.Options{SpeedMps: 3, PauseSec: 2},
			TickSec: 0.5,
			Seed:    subSeed(layoutSeed, -1-i),
		}
		cfg.Workload = &ezflow.WorkloadSpec{Clients: clients, OnMeanSec: 5, OffMeanSec: 5}
		runs = append(runs, runSpec{cfg: cfg, build: disk(nodes, subSeed(layoutSeed, i))})
	}
	return runs
}

// campaignSpec is topology=chain,grid,random x mode=802.11,ezflow x
// hops=4,6 with 4 replications of 120 s: 48 runs.
func campaignSpec(seed int64, small bool) campaign.Spec {
	spec := campaign.Spec{
		Name: "ezperf",
		Axes: []campaign.Axis{
			{Name: "topology", Values: []string{"chain", "grid", "random"}},
			{Name: "mode", Values: []string{"802.11", "ezflow"}},
			{Name: "hops", Values: []string{"4", "6"}},
		},
		Reps:        4,
		BaseSeed:    seed,
		DurationSec: 120,
	}
	if small {
		spec.Axes = []campaign.Axis{
			{Name: "topology", Values: []string{"chain", "random"}},
			{Name: "mode", Values: []string{"ezflow"}},
			{Name: "hops", Values: []string{"3"}},
		}
		spec.Reps, spec.DurationSec = 1, 20
	}
	return spec
}

// warmReplays is how many times the campaign's warm step replays the spec
// from the store the cold step filled.
func warmReplays(small bool) int {
	if small {
		return 2
	}
	return 200
}

// procs is the campaign's worker and shard count: one per CPU this
// process may use, never more, and at most four so the benchmark stays
// small on large hosts.
func procs() int { return min(runtime.NumCPU(), 4) }

// gridRuns lists a campaign's replications in grid order as scenario runs,
// configured exactly as campaign.Engine configures them, so the direct
// step's outputs must equal the engine's bit for bit.
func gridRuns(spec campaign.Spec) []runSpec {
	points, err := spec.Enumerate()
	if err != nil {
		panic(err) // the specs above are fixed; an error is a bug
	}
	var runs []runSpec
	for _, p := range points {
		for rep := 0; rep < spec.Reps; rep++ {
			cfg := ezflow.DefaultConfig()
			cfg.Seed = campaign.DeriveSeed(spec.BaseSeed, p.Label, rep)
			cfg.Duration = ezflow.Time(spec.DurationSec * float64(ezflow.Second))
			cfg.Mode = p.Mode
			cfg.MAC.HardwareCWCap = p.CWCap
			r := runSpec{cfg: cfg, flows: []ezflow.FlowSpec{{Flow: 1, RateBps: p.RateBps}}}
			switch p.Topology {
			case "chain":
				r.build = chain(p.Hops)
			case "grid":
				r.build = grid(max(p.Hops, 2))
				r.flows = append(r.flows, ezflow.FlowSpec{Flow: 2, RateBps: p.RateBps})
			case "random":
				r.build = disk(p.Nodes, cfg.Seed)
			default:
				panic("ezperf: no builder for topology " + p.Topology)
			}
			runs = append(runs, r)
		}
	}
	return runs
}
