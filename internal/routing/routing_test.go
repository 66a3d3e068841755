package routing

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ezflow/internal/phy"
	"ezflow/internal/pkt"
)

// testGraph builds a Graph from an undirected edge list with optional
// symmetric per-edge loss, mirroring how mesh assembles the real view:
// ascending ids, a pure usable predicate, calibrated losses.
func testGraph(n int, edges [][2]pkt.NodeID, loss map[[2]pkt.NodeID]float64) *Graph {
	ids := make([]pkt.NodeID, n)
	for i := range ids {
		ids[i] = pkt.NodeID(i)
	}
	adj := make(map[[2]pkt.NodeID]bool)
	for _, e := range edges {
		adj[e] = true
		adj[[2]pkt.NodeID{e[1], e[0]}] = true
	}
	return &Graph{
		IDs:    ids,
		Usable: func(a, b pkt.NodeID) bool { return adj[[2]pkt.NodeID{a, b}] },
		LinkLoss: func(a, b pkt.NodeID) float64 {
			if l, ok := loss[[2]pkt.NodeID{a, b}]; ok {
				return l
			}
			return loss[[2]pkt.NodeID{b, a}]
		},
	}
}

// TestRegistryContents pins the three shipped strategies and the default
// spelling rules every CLI flag and scenario field share.
func TestRegistryContents(t *testing.T) {
	for _, name := range []string{"bfs", "etx", "kshortest"} {
		info, ok := Strategies.ByName(name)
		if !ok {
			t.Fatalf("strategy %q not registered", name)
		}
		s := info.New()
		if s.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, s.Name())
		}
	}
	names := Strategies.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Strategies.Names() not sorted: %v", names)
		}
	}
	if !strings.Contains(Strategies.NamesList(), "bfs|") {
		t.Errorf("Strategies.NamesList() = %q", Strategies.NamesList())
	}
	if Default().Name() != DefaultName {
		t.Errorf("Default().Name() = %q, want %q", Default().Name(), DefaultName)
	}
	for name, want := range map[string]bool{"": true, "bfs": true, "BFS": true, "etx": false, "kshortest": false, "nope": false} {
		if IsDefault(name) != want {
			t.Errorf("IsDefault(%q) = %v, want %v", name, !want, want)
		}
	}
	if !strings.Contains(Strategies.Usage(), "etx") {
		t.Errorf("Strategies.Usage() misses etx:\n%s", Strategies.Usage())
	}
}

// TestRegisterRejectsBadInfo covers the init-time registration contract:
// empty names, nil constructors and duplicates all panic.
func TestRegisterRejectsBadInfo(t *testing.T) {
	mustPanic := func(name string, info Info) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Register did not panic", name)
			}
		}()
		Register(info)
	}
	newS := func() Strategy { return BFS{} }
	mustPanic("empty name", Info{Name: "", New: newS})
	mustPanic("nil New", Info{Name: "zz-test-nil"})
	mustPanic("duplicate", Info{Name: "bfs", New: newS})
}

// TestBFSRoute covers the re-homed legacy search: shortest hop count,
// lowest-id tie-break, ok=false across partitions.
func TestBFSRoute(t *testing.T) {
	// Diamond 0-1-3 / 0-2-3 plus a long detour 0-4-5-3.
	g := testGraph(6, [][2]pkt.NodeID{{0, 1}, {1, 3}, {0, 2}, {2, 3}, {0, 4}, {4, 5}, {5, 3}}, nil)
	got, ok := BFS{}.Route(g, 1, 0, 3)
	if !ok || !reflect.DeepEqual(got, []pkt.NodeID{0, 1, 3}) {
		t.Errorf("Route = %v, %v; want [0 1 3] (lowest-id 2-hop path)", got, ok)
	}
	// Severing both 2-hop branches leaves the detour.
	g2 := testGraph(6, [][2]pkt.NodeID{{0, 4}, {4, 5}, {5, 3}}, nil)
	if got, ok := (BFS{}).Route(g2, 1, 0, 3); !ok || len(got) != 4 {
		t.Errorf("detour route = %v, %v; want the 3-hop path", got, ok)
	}
	if _, ok := (BFS{}).Route(g2, 1, 0, 2); ok {
		t.Error("route to an isolated node reported ok")
	}
}

// TestETXPrefersCleanDetour is the metric's reason to exist: a marginal
// direct link costs more expected transmissions than two clean hops, so
// ETX routes around what BFS walks straight through.
func TestETXPrefersCleanDetour(t *testing.T) {
	edges := [][2]pkt.NodeID{{0, 3}, {0, 1}, {1, 3}}
	loss := map[[2]pkt.NodeID]float64{{0, 3}: 0.6} // direct ETX 1/(0.4·0.4) = 6.25 > 2
	g := testGraph(4, edges, loss)
	e := &ETX{MinAcked: 8}
	if got, ok := e.Route(g, 1, 0, 3); !ok || !reflect.DeepEqual(got, []pkt.NodeID{0, 1, 3}) {
		t.Errorf("Route = %v, %v; want the clean 2-hop detour", got, ok)
	}
	if c := e.LinkCost(g, 0, 3); math.Abs(c-6.25) > 1e-9 {
		t.Errorf("LinkCost(0,3) = %g, want 6.25", c)
	}
	if c := e.PathCost(g, []pkt.NodeID{0, 1, 3}); math.Abs(c-2) > 1e-9 {
		t.Errorf("PathCost = %g, want 2", c)
	}
	// BFS on the same graph takes the lossy direct hop.
	if got, _ := (BFS{}).Route(g, 1, 0, 3); !reflect.DeepEqual(got, []pkt.NodeID{0, 3}) {
		t.Errorf("BFS control = %v, want [0 3]", got)
	}
}

// TestETXMeasuredCounters checks the PR 6 observability inputs override
// the calibration once a link has enough samples — and only then.
func TestETXMeasuredCounters(t *testing.T) {
	g := testGraph(4, [][2]pkt.NodeID{{0, 3}, {0, 1}, {1, 3}}, nil)
	acked := uint64(100)
	g.Measured = func(a, b pkt.NodeID) (uint64, uint64, bool) {
		if a == 0 && b == 3 {
			return acked, 300, true // measured ETX 4
		}
		return 0, 0, false
	}
	e := &ETX{MinAcked: 8}
	if c := e.LinkCost(g, 0, 3); math.Abs(c-4) > 1e-9 {
		t.Errorf("measured LinkCost = %g, want 4", c)
	}
	if got, ok := e.Route(g, 1, 0, 3); !ok || !reflect.DeepEqual(got, []pkt.NodeID{0, 1, 3}) {
		t.Errorf("Route = %v, %v; want detour around the measured-bad link", got, ok)
	}
	acked = 4 // below the sample floor: calibration (loss-free, cost 1) wins
	if c := e.LinkCost(g, 0, 3); math.Abs(c-1) > 1e-9 {
		t.Errorf("under-sampled LinkCost = %g, want calibrated 1", c)
	}
	if got, _ := e.Route(g, 1, 0, 3); !reflect.DeepEqual(got, []pkt.NodeID{0, 3}) {
		t.Errorf("under-sampled Route = %v, want the direct hop", got)
	}
}

// TestETXInfiniteLossUnroutable checks certain-erasure links are never
// used: with every path through them, no route exists.
func TestETXInfiniteLossUnroutable(t *testing.T) {
	g := testGraph(3, [][2]pkt.NodeID{{0, 1}, {1, 2}}, map[[2]pkt.NodeID]float64{{1, 2}: 1})
	e := &ETX{MinAcked: 8}
	if !math.IsInf(e.LinkCost(g, 1, 2), 1) {
		t.Errorf("LinkCost of a certain-erasure link = %g, want +Inf", e.LinkCost(g, 1, 2))
	}
	if _, ok := e.Route(g, 1, 0, 2); ok {
		t.Error("routed through a link with loss 1")
	}
}

// TestKShortestSpreadsFlows covers the multipath contract: ranked
// deterministic alternatives, flow 1 pinned to the BFS route, later flows
// round-robined over the rest, every path loop-free.
func TestKShortestSpreadsFlows(t *testing.T) {
	// Diamond plus a 3-hop detour: three distinct loop-free paths 0..3.
	g := testGraph(6, [][2]pkt.NodeID{{0, 1}, {1, 3}, {0, 2}, {2, 3}, {0, 4}, {4, 5}, {5, 3}}, nil)
	s := &KShortest{K: 4}
	paths := s.Paths(g, 0, 3)
	if len(paths) != 3 {
		t.Fatalf("got %d paths %v, want 3", len(paths), paths)
	}
	want := [][]pkt.NodeID{{0, 1, 3}, {0, 2, 3}, {0, 4, 5, 3}}
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("Paths = %v, want %v", paths, want)
	}
	for _, p := range paths {
		seen := map[pkt.NodeID]bool{}
		for _, u := range p {
			if seen[u] {
				t.Errorf("path %v revisits %v", p, u)
			}
			seen[u] = true
		}
	}
	for flow, wantPath := range map[pkt.FlowID][]pkt.NodeID{
		1: {0, 1, 3}, 2: {0, 2, 3}, 3: {0, 4, 5, 3}, 4: {0, 1, 3}, // wraps
	} {
		if got, ok := s.Route(g, flow, 0, 3); !ok || !reflect.DeepEqual(got, wantPath) {
			t.Errorf("flow %v: Route = %v, %v; want %v", flow, got, ok, wantPath)
		}
	}
	if _, ok := s.Route(g, 1, 0, 9); ok {
		t.Error("route to an absent node reported ok")
	}
}

// TestKShortestDeterministic re-ranks the same graph and expects the
// identical ordering — the property the campaign's worker-count pin
// ultimately rests on.
func TestKShortestDeterministic(t *testing.T) {
	g := testGraph(6, [][2]pkt.NodeID{{0, 1}, {1, 3}, {0, 2}, {2, 3}, {0, 4}, {4, 5}, {5, 3}}, nil)
	s := &KShortest{K: 4}
	a := s.Paths(g, 0, 3)
	b := s.Paths(g, 0, 3)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("re-ranking diverged: %v vs %v", a, b)
	}
}

// TestGatewayTree pins the hoisted builder helper: a 3-node line yields
// the parent chain toward node 0, and an out-of-range node is reported
// unreachable by Connected.
func TestGatewayTree(t *testing.T) {
	pos := []phy.Position{{X: 0}, {X: 200}, {X: 400}}
	parent := GatewayTree(pos, 250)
	if !reflect.DeepEqual(parent, []int{0, 0, 1}) {
		t.Errorf("parent = %v, want [0 0 1]", parent)
	}
	if !Connected(parent) {
		t.Error("connected line reported disconnected")
	}
	pos = append(pos, phy.Position{X: 5000})
	if Connected(GatewayTree(pos, 250)) {
		t.Error("isolated node reported connected")
	}
}

// TestRegistryDefaults pins the fixed parameters the registry builds its
// strategies with.
func TestRegistryDefaults(t *testing.T) {
	etx, _ := Strategies.ByName("etx")
	if s, ok := etx.New().(*ETX); !ok || s.MinAcked != 8 {
		t.Errorf("registry etx = %#v, want MinAcked 8", etx.New())
	}
	ks, _ := Strategies.ByName("kshortest")
	if s, ok := ks.New().(*KShortest); !ok || s.K != 4 {
		t.Errorf("registry kshortest = %#v, want K 4", ks.New())
	}
}

// TestBFSMemoNeverCrossesGraphs pins the search-tree memo to the Graph it
// was built on. A Graph copied by value, or a fresh Graph over the same
// ids, with a different Usable must search again rather than answer from
// the original's tree; the original keeps answering from its own.
func TestBFSMemoNeverCrossesGraphs(t *testing.T) {
	edges := [][2]pkt.NodeID{{0, 1}, {1, 3}, {0, 2}, {2, 3}, {0, 4}, {4, 5}, {5, 3}}
	g := testGraph(6, edges, nil)
	want := []pkt.NodeID{0, 1, 3}
	if got, ok := (BFS{}).Route(g, 1, 0, 3); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Route = %v, %v; want %v", got, ok, want)
	}
	// Severing node 1 leaves 0-2-3; severing 1 and 2 leaves the detour.
	without := func(bad ...pkt.NodeID) func(a, b pkt.NodeID) bool {
		return func(a, b pkt.NodeID) bool {
			for _, x := range bad {
				if a == x || b == x {
					return false
				}
			}
			return g.Usable(a, b)
		}
	}
	copied := *g
	copied.Usable = without(1)
	if got, ok := (BFS{}).Route(&copied, 1, 0, 3); !ok || !reflect.DeepEqual(got, []pkt.NodeID{0, 2, 3}) {
		t.Errorf("copied Graph: Route = %v, %v; want [0 2 3]", got, ok)
	}
	fresh := &Graph{IDs: g.IDs, Neighbors: g.Neighbors, Usable: without(1, 2)}
	if got, ok := (BFS{}).Route(fresh, 1, 0, 3); !ok || !reflect.DeepEqual(got, []pkt.NodeID{0, 4, 5, 3}) {
		t.Errorf("fresh Graph: Route = %v, %v; want [0 4 5 3]", got, ok)
	}
	if got, ok := (BFS{}).Route(g, 1, 0, 3); !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("original Graph after the others: Route = %v, %v; want %v", got, ok, want)
	}
	// Yen's spur searches ban nodes and edges; running them on a warmed
	// Graph must rank the same paths as on a cold one.
	ks := &KShortest{K: 4}
	cold := ks.Paths(testGraph(6, edges, nil), 0, 3)
	if warm := ks.Paths(g, 0, 3); !reflect.DeepEqual(warm, cold) {
		t.Errorf("k-shortest on a warmed Graph = %v, cold %v", warm, cold)
	}
}

// TestBFSRouteWarmAllocs pins the memoised lookup: once a source's tree
// is built, Route allocates only the path it returns.
func TestBFSRouteWarmAllocs(t *testing.T) {
	var edges [][2]pkt.NodeID
	for i := pkt.NodeID(0); i < 40; i++ {
		edges = append(edges, [2]pkt.NodeID{i, i + 1})
		if i%3 == 0 {
			edges = append(edges, [2]pkt.NodeID{i, i + 2})
		}
	}
	g := testGraph(41, edges, nil)
	if _, ok := (BFS{}).Route(g, 1, 0, 40); !ok {
		t.Fatal("no route along a connected line")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		(BFS{}).Route(g, 1, 0, 40)
		(BFS{}).Route(g, 2, 0, 17)
	}); allocs != 2 {
		t.Fatalf("warm Route allocates %.1f allocs per two calls, want 2 (the paths)", allocs)
	}
}

// TestNeighborsDoNotChangeRoutes checks every strategy routes the same
// over a Graph that lists candidate next hops as over one that leaves
// Neighbors nil (every id), on random sparse graphs with asymmetric
// usable links and losses.
func TestNeighborsDoNotChangeRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := range 20 {
		n := 30 + rng.Intn(30)
		ids := make([]pkt.NodeID, n)
		for i := range ids {
			ids[i] = pkt.NodeID(3 * i) // sparse ids exercise the slot search
		}
		adj := make([][]pkt.NodeID, 3*n)
		usable := make(map[[2]pkt.NodeID]bool)
		loss := make(map[[2]pkt.NodeID]float64)
		for _, a := range ids {
			for _, b := range ids {
				if a != b && rng.Float64() < 0.12 {
					adj[a] = append(adj[a], b)
					usable[[2]pkt.NodeID{a, b}] = rng.Float64() < 0.9
					loss[[2]pkt.NodeID{a, b}] = rng.Float64() / 2
				}
			}
		}
		graph := func(withNeighbors bool) *Graph {
			g := &Graph{
				IDs:      ids,
				Usable:   func(a, b pkt.NodeID) bool { return usable[[2]pkt.NodeID{a, b}] },
				LinkLoss: func(a, b pkt.NodeID) float64 { return loss[[2]pkt.NodeID{a, b}] },
			}
			if withNeighbors {
				g.Neighbors = func(a pkt.NodeID, yield func(pkt.NodeID)) {
					for _, b := range adj[a] {
						yield(b)
					}
				}
			}
			return g
		}
		for _, s := range []Strategy{BFS{}, &ETX{MinAcked: 8}, &KShortest{K: 3}} {
			all, listed := graph(false), graph(true)
			for range 10 {
				src, dst := ids[rng.Intn(n)], ids[rng.Intn(n)]
				flow := pkt.FlowID(1 + rng.Intn(4))
				want, wok := s.Route(all, flow, src, dst)
				got, gok := s.Route(listed, flow, src, dst)
				if wok != gok || !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s %v->%v: with Neighbors %v, %v; without %v, %v",
						trial, s.Name(), src, dst, got, gok, want, wok)
				}
			}
		}
	}
}
