package main

// metric is one named number ezperf reports. The catalog below is the
// single list of what it prints; BENCHMARK.json repeats it for the
// benchmark driver, and the self-test keeps the two equal.
type metric struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is how far an end-to-end median may worsen, as a share of the
	// base median, before -compare calls it a regression.
	bound float64
	// exact marks per-layer counts that are a pure function of the
	// workload and seed; -compare requires them to repeat exactly.
	exact bool
}

// endToEnd are the numbers a user of the simulator sees. They are
// measured with tracing off and reported as medians over the timed
// passes, host times scaled to the reference host (see calibrator).
var endToEnd = []metric{
	{name: "sim_rate", unit: "sim-s/s", better: "higher", bound: 0.10},
	{name: "events_per_s", unit: "1/s", better: "higher", bound: 0.10},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	// Allocation varies by a few percent between seeds: the MAC's
	// randomness decides how many packets, and so statistics samples, a
	// run produces.
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.10},
	// The largest run's statistics, and with them its peak RSS, vary by
	// about a megabyte between seeds.
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.15},
}

// cpuLayers are the repository layers CPU samples are attributed to (see
// layerOf); each yields a cpu.<layer>_pct metric.
var cpuLayers = []string{
	"sim", "phy", "mac", "pkt", "mesh", "routing", "mobility", "dynamics",
	"ctl", "traffic", "stats", "root", "campaign", "fabric", "bench", "gc", "other",
}

// perLayer are the numbers of single layers: medians over the untraced
// passes (counts repeat exactly), except the CPU shares and trace numbers,
// which come from the traced pass.
var perLayer = append([]metric{
	{name: "setup.build_ms", unit: "ms", better: "lower"},
	{name: "setup.wire_ms", unit: "ms", better: "lower"},
	{name: "loop.first_tx_ms", unit: "ms", better: "lower"},
	{name: "loop.ms", unit: "ms", better: "lower"},
	{name: "summary.ms", unit: "ms", better: "lower"},
	{name: "loop.ns_per_event", unit: "ns", better: "lower"},
	{name: "loop.ns_per_tx", unit: "ns", better: "lower"},
	{name: "sim.events", unit: "count", better: "lower", exact: true},
	{name: "sim.scheduled", unit: "count", better: "lower", exact: true},
	{name: "sim.cancel_ratio", unit: "ratio", better: "lower", exact: true},
	{name: "sim.events_per_sim_s", unit: "1/sim-s", better: "lower", exact: true},
	{name: "phy.tx", unit: "count", better: "lower", exact: true},
	{name: "phy.collisions", unit: "count", better: "lower", exact: true},
	{name: "phy.erasures", unit: "count", better: "lower", exact: true},
	{name: "mac.tx_data", unit: "count", better: "lower", exact: true},
	{name: "mac.retry_ratio", unit: "ratio", better: "lower", exact: true},
	{name: "mac.ack_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "mac.drops_overflow", unit: "count", better: "lower", exact: true},
	{name: "mac.drops_retry", unit: "count", better: "lower", exact: true},
	{name: "mac.drops_flush", unit: "count", better: "lower", exact: true},
	{name: "mac.peak_queue", unit: "count", better: "lower", exact: true},
	{name: "pkt.packet_reuse_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "pkt.frame_reuse_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "ctl.overhead_bytes", unit: "bytes", better: "lower", exact: true},
	{name: "ctl.cw_changes", unit: "count", better: "lower", exact: true},
	{name: "mesh.route_hops", unit: "hops", better: "lower", exact: true},
	{name: "mesh.reroute_us", unit: "us", better: "lower"},
	{name: "mesh.reroute_failures", unit: "count", better: "lower", exact: true},
	{name: "mobility.ticks", unit: "count", better: "lower", exact: true},
	{name: "mobility.moves", unit: "count", better: "lower", exact: true},
	{name: "mobility.deferred", unit: "count", better: "lower", exact: true},
	{name: "mobility.repairs", unit: "count", better: "lower", exact: true},
	{name: "campaign.cold_runs_per_s", unit: "1/s", better: "higher"},
	{name: "campaign.shard_runs_per_s", unit: "1/s", better: "higher"},
	{name: "campaign.shard_vs_pool", unit: "ratio", better: "lower"},
	{name: "campaign.worker_start_ms", unit: "ms", better: "lower"},
	{name: "campaign.retried", unit: "count", better: "lower", exact: true},
	{name: "campaign.restarts", unit: "count", better: "lower", exact: true},
	{name: "fabric.warm_runs_per_s", unit: "1/s", better: "higher"},
	{name: "fabric.hits", unit: "count", better: "higher", exact: true},
	{name: "fabric.misses", unit: "count", better: "lower", exact: true},
	{name: "fabric.puts", unit: "count", better: "lower", exact: true},
	{name: "fabric.store_kb", unit: "KB", better: "lower", exact: true},
	{name: "heap.mallocs", unit: "count", better: "lower"},
	{name: "gc.cycles", unit: "count", better: "lower"},
	{name: "gc.pause_ms", unit: "ms", better: "lower"},
	{name: "host.speed", unit: "ratio", better: "higher"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.samples", unit: "count", better: "higher"},
}, cpuMetrics()...)

func cpuMetrics() []metric {
	ms := make([]metric, len(cpuLayers))
	for i, l := range cpuLayers {
		ms[i] = metric{name: cpuKey(l), unit: "%", better: "lower"}
	}
	return ms
}

func cpuKey(layer string) string { return "cpu." + layer + "_pct" }

// catalog returns the metrics one invocation prints: the end-to-end ones
// untraced, the per-layer ones traced.
func catalog(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}
