// Package obs is the observability layer of the simulator: a zero-alloc
// metrics registry (dense-slot counter families, probe gauges,
// fixed-bucket histograms) snapshot-able at any simulation time into a
// deterministic ordered document, a ring-buffered packet flight recorder
// that captures every lifecycle event of every packet (enqueue, dequeue,
// tx-attempt, retry, drop, deliver — with cause codes), and a live HTTP
// introspection server exposing snapshots, run progress and net/http/pprof.
//
// Two invariants govern the package and every call site that uses it:
//
//   - Disabled observability costs ~zero. Every hot-path hook is either a
//     nil-guarded method call on a nil receiver or an explicit `!= nil`
//     branch; no hook allocates, ever (bench_test.go pins this at
//     0 allocs/op, gated by `make bench`).
//
//   - Enabled observability never perturbs simulation output. Counters and
//     the flight recorder only write to observability-owned storage; gauges
//     are read-only probes evaluated at snapshot time on the simulation
//     goroutine; nothing consumes engine randomness or reorders existing
//     events. The campaign layer pins this with byte-identical golden
//     output, observability on vs off, at several worker counts.
//
// The package sits below every simulator layer: it imports only
// internal/sim and internal/pkt, so phy and mac can hold obs handles while
// all cross-layer metric registration happens in the root ezflow package
// (Scenario.EnableObs), where every layer is in scope.
package obs

// Config selects which observability pillars a scenario enables.
// The zero value disables everything.
type Config struct {
	// Metrics enables the metric registry: the full catalog of engine,
	// pool, PHY, MAC, queue, controller and flow metrics is registered at
	// EnableObs time and snapshotted into Result.Obs at the end of the run.
	Metrics bool
	// FlightRecorder, when positive, enables the packet flight recorder
	// with a ring of that many events (most recent kept; see
	// DefaultFlightRecorderSize for a typical value).
	FlightRecorder int
}

// Set bundles the observability state attached to one scenario. Fields are
// nil for pillars the Config left disabled.
type Set struct {
	// Reg is the scenario's metric registry (nil when Config.Metrics was
	// false).
	Reg *Registry
	// Flight is the scenario's packet flight recorder (nil when
	// Config.FlightRecorder was zero).
	Flight *FlightRecorder
}
