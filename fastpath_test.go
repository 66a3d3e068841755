package ezflow_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ezflow"
	"ezflow/internal/dynamics"
	"ezflow/internal/mac"
	"ezflow/internal/obs"
	"ezflow/internal/pkt"
)

// runTrace is everything of one run the per-packet fast paths could
// change: the Result, the engine's fired count, every queue and MAC
// counter, each source's arrival counts and the flight recorder.
type runTrace struct {
	res     *ezflow.Result
	fired   uint64
	queues  []queueCounters
	macs    []macCounters
	sources map[ezflow.FlowID][2]uint64
	flight  []obs.PacketEvent
	total   uint64
}

type queueCounters struct {
	node, next                                 ezflow.NodeID
	enqueued, dropped, dequeued                uint64
	overflow, flush, retry, retries, cwChanges uint64
	peak, depth, cw                            int
}

type macCounters struct {
	txData, txRetries, txAcked, txFailed, rxData, rxDup uint64
}

// flightRing is large enough that no run below overwrites a record, so
// the whole flight history is compared.
const flightRing = 1 << 18

// traceRun wires a scenario with build, lets prepare adjust it, and runs
// it. With hooked set, every MAC gets a no-op drop hook first, which
// makes every traffic source build a packet for each arrival, as it did
// before overflow drops at the source skipped the packet.
func traceRun(t *testing.T, hooked bool, build func() *ezflow.Scenario, prepare func(*ezflow.Scenario)) runTrace {
	t.Helper()
	sc := build()
	fl := sc.EnableObs(obs.Config{FlightRecorder: flightRing}).Flight
	if hooked {
		for _, n := range sc.Mesh.Nodes() {
			n.MAC.AddDropHook(func(*pkt.Packet, mac.DropReason) {})
		}
	}
	if prepare != nil {
		prepare(sc)
	}
	tr := runTrace{res: sc.Run(), fired: sc.Eng.Fired(), sources: make(map[ezflow.FlowID][2]uint64)}
	for _, n := range sc.Mesh.Nodes() {
		m := n.MAC
		tr.macs = append(tr.macs, macCounters{m.TxData, m.TxRetries, m.TxAcked, m.TxFailed, m.RxData, m.RxDup})
		for _, q := range n.Queues() {
			tr.queues = append(tr.queues, queueCounters{
				node: n.ID, next: q.NextHop(),
				enqueued: q.Enqueued, dropped: q.Dropped, dequeued: q.Dequeued,
				overflow: q.DroppedOverflow, flush: q.DroppedFlush, retry: q.DroppedRetry,
				retries: q.Retries, cwChanges: q.CWChanges,
				peak: q.PeakDepth, depth: q.Len(), cw: q.CWmin(),
			})
		}
	}
	for f, s := range sc.Sources {
		tr.sources[f] = [2]uint64{s.Generated, s.Injected}
	}
	tr.flight, tr.total = fl.Events(), fl.Total()
	if fl.Overwritten() != 0 {
		t.Fatalf("flight recorder overwrote %d records; enlarge flightRing", fl.Overwritten())
	}
	return tr
}

// compareFastPaths runs the scenario plain and hooked and requires the
// two runs to agree in every field of runTrace. It returns the plain run.
func compareFastPaths(t *testing.T, build func() *ezflow.Scenario, prepare func(*ezflow.Scenario)) runTrace {
	t.Helper()
	plain := traceRun(t, false, build, prepare)
	full := traceRun(t, true, build, prepare)
	if plain.fired != full.fired {
		t.Fatalf("fired %d events, %d on the full packet path", plain.fired, full.fired)
	}
	if !reflect.DeepEqual(plain.sources, full.sources) {
		t.Fatalf("sources (generated, injected) %v, %v on the full packet path", plain.sources, full.sources)
	}
	if !slices.Equal(plain.queues, full.queues) {
		for i := range min(len(plain.queues), len(full.queues)) {
			if plain.queues[i] != full.queues[i] {
				t.Fatalf("queue %d: %+v, %+v on the full packet path", i, plain.queues[i], full.queues[i])
			}
		}
		t.Fatalf("%d queues, %d on the full packet path", len(plain.queues), len(full.queues))
	}
	if !slices.Equal(plain.macs, full.macs) {
		t.Fatalf("MAC counters %+v, %+v on the full packet path", plain.macs, full.macs)
	}
	if plain.total != full.total || !slices.Equal(plain.flight, full.flight) {
		t.Fatalf("%d flight records, %d on the full packet path, or their contents differ", plain.total, full.total)
	}
	if !reflect.DeepEqual(plain.res, full.res) {
		t.Fatal("Result differs from the full packet path's")
	}
	return plain
}

// overflows sums the overflow drops over every queue of a run.
func overflows(tr runTrace) uint64 {
	var n uint64
	for _, q := range tr.queues {
		n += q.overflow
	}
	return n
}

// TestOverflowFastPathMatchesPacketPath checks that dropping an arrival
// at a full source queue without building its packet, forwarding through
// the per-flow hop table and skipping interference at noise locks leave
// every run exactly as the full packet path does.
func TestOverflowFastPathMatchesPacketPath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	cfgFor := func(mode ezflow.Mode) ezflow.Config {
		cfg := ezflow.DefaultConfig()
		cfg.Mode = mode
		cfg.Duration = 30 * ezflow.Second
		return cfg
	}
	at := func(s float64) ezflow.Time { return ezflow.Time(s * float64(ezflow.Second)) }
	flow := func(id ezflow.FlowID, start, stop float64) ezflow.FlowSpec {
		return ezflow.FlowSpec{Flow: id, RateBps: 2e6, Start: at(start), Stop: at(stop)}
	}
	chain := func(cfg ezflow.Config) *ezflow.Scenario { return ezflow.NewChain(4, cfg, flow(1, 0, 0)) }
	topologies := []struct {
		name  string
		build func(ezflow.Config) *ezflow.Scenario
	}{
		{"chain", chain},
		{"scenario2", func(cfg ezflow.Config) *ezflow.Scenario {
			return ezflow.NewScenario2(cfg, flow(1, 0, 0), flow(2, 0, 24), flow(3, 12, 24))
		}},
		{"testbed", func(cfg ezflow.Config) *ezflow.Scenario {
			return ezflow.NewTestbed(cfg, flow(1, 0, 0), flow(2, 0, 0))
		}},
	}
	for _, topo := range topologies {
		for _, mode := range []ezflow.Mode{ezflow.Mode80211, ezflow.ModeEZFlow} {
			t.Run(fmt.Sprintf("%s/%v", topo.name, mode), func(t *testing.T) {
				tr := compareFastPaths(t, func() *ezflow.Scenario { return topo.build(cfgFor(mode)) }, nil)
				if overflows(tr) == 0 {
					t.Fatal("no overflow drops: the fast path never ran")
				}
			})
		}
	}

	t.Run("mobility", func(t *testing.T) {
		tr := compareFastPaths(t, func() *ezflow.Scenario { return mobileDisk(1) }, nil)
		if st := tr.res.MobilityStats; st == nil || st.Repairs == 0 {
			t.Fatalf("mobility stats %+v: the run should repair routes", st)
		}
	})

	// A relay of the 3x3 grid's flow 1 (8 7 6 3 0) halts with its queue
	// kept, the repair moves the flow onto 8 5 2 1 0, and the relay
	// returns without a repair: its stale packets drain into 6, and 6's
	// into 3, both now off the flow's route.
	t.Run("node-down", func(t *testing.T) {
		var rxOff [2]uint64 // RxData at 6 and 3 when the relay returns, then at the end
		var last *ezflow.Scenario
		build := func() *ezflow.Scenario {
			sc := ezflow.NewGrid(3, 3, cfgFor(ezflow.Mode80211))
			script := &dynamics.Script{Events: []dynamics.Event{
				{At: at(5), Kind: dynamics.NodeDown, Node: 7, Reroute: true},
				{At: at(12), Kind: dynamics.NodeUp, Node: 7},
			}}
			if err := sc.AddDynamics(script); err != nil {
				t.Fatal(err)
			}
			return sc
		}
		prepare := func(sc *ezflow.Scenario) {
			last = sc
			rx := func() uint64 { return sc.Mesh.Node(6).MAC.RxData + sc.Mesh.Node(3).MAC.RxData }
			sc.Eng.ScheduleAt(at(12)+1, func() { rxOff[0] = rx() })
			sc.Eng.ScheduleAt(at(29), func() { rxOff[1] = rx() })
		}
		compareFastPaths(t, build, prepare)
		if got, want := last.Mesh.Route(1), []ezflow.NodeID{8, 5, 2, 1, 0}; !slices.Equal(got, want) {
			t.Fatalf("flow 1 route %v after the repair, want %v", got, want)
		}
		if rxOff[1] <= rxOff[0] {
			t.Fatalf("nodes 6 and 3 received %d data frames before the relay returned and %d by the end: no stale packet reached them", rxOff[0], rxOff[1])
		}
	})

	// Flow 1's source queue on the chain is full within a second at
	// 2 Mb/s; its rate steps down and back up, and it stops and restarts,
	// each while the queue is full.
	t.Run("setrate-stop", func(t *testing.T) {
		full := 0
		prepare := func(sc *ezflow.Scenario) {
			src, q := sc.Sources[1], sc.Mesh.Node(0).SourceQueue(1)
			check := func(f func()) func() {
				return func() {
					if q.Len() == sc.Cfg.MAC.QueueCap {
						full++
					}
					f()
				}
			}
			sc.Eng.ScheduleAt(at(5), check(func() { src.SetRate(1.5e6) }))
			sc.Eng.ScheduleAt(at(9)+123, check(func() { src.SetRate(3e6) }))
			sc.Eng.ScheduleAt(at(13), check(src.Stop))
			sc.Eng.ScheduleAt(at(13)+7, check(src.Start))
			sc.Eng.ScheduleAt(at(20)+1, check(src.Stop))
		}
		compareFastPaths(t, func() *ezflow.Scenario { return chain(cfgFor(ezflow.ModeEZFlow)) }, prepare)
		if full != 10 {
			t.Fatalf("the queue was full at %d of the 10 rate steps and stops of both runs, want all", full)
		}
	})
}
