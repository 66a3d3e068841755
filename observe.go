// Observability wiring: EnableObs attaches the internal/obs layer to a
// wired scenario — the full metric catalog over every simulator layer
// (engine, pool, PHY, MAC queues, controller, flows), the per-station PHY
// counter families, and the packet flight recorder. Everything registered
// here either reads existing state (gauges, evaluated at snapshot time)
// or writes exclusively into observability-owned storage (counters, the
// recorder ring), so an observed run is byte-identical to an unobserved
// one; internal/campaign pins that with golden output at several worker
// counts.
package ezflow

import (
	"fmt"

	"ezflow/internal/obs"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// delayBucketsSec are the end-to-end delay histogram bounds (seconds):
// roughly logarithmic from one MAC exchange to queue-divergence scales.
var delayBucketsSec = []float64{0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 100}

// EnableObs attaches the observability layer to a wired scenario and
// returns its Set (idempotent: a second call returns the first Set). It
// may be called any time between wiring and Run — metric gauges read
// state lazily at snapshot time, so nothing is lost by attaching late.
// The CLIs call it to honour their -obs/-flightrec flags, and campaigns
// when their spec asks for metrics.
func (sc *Scenario) EnableObs(ocfg obs.Config) *obs.Set {
	if sc.ran {
		panic("ezflow: EnableObs after Run")
	}
	if sc.Obs != nil {
		return sc.Obs
	}
	set := &obs.Set{}
	if ocfg.Metrics {
		set.Reg = obs.NewRegistry()
		sc.registerMetrics(set.Reg)
	}
	if ocfg.FlightRecorder > 0 {
		set.Flight = obs.NewFlightRecorder(ocfg.FlightRecorder)
		for _, n := range sc.Mesh.Nodes() {
			n.MAC.SetRecorder(set.Flight)
		}
		fl := set.Flight
		sc.Mesh.AddSink(func(p *pkt.Packet, at sim.Time) {
			fl.Record(at, obs.KindDeliver, obs.CauseNone, p.Dst, p.Src, p.Flow, p.Seq)
		})
	}
	sc.Obs = set
	return set
}

// registerMetrics builds the scenario's metric catalog (see
// docs/ARCHITECTURE.md, "Observability layer", for the full listing).
// All cross-layer registration happens here — obs itself imports only
// sim and pkt, so no lower layer ever imports a higher one.
func (sc *Scenario) registerMetrics(reg *obs.Registry) {
	eng, m := sc.Eng, sc.Mesh

	// Engine: event churn and heap depth.
	reg.Gauge("sim.events_scheduled", func() float64 { return float64(eng.Scheduled()) })
	reg.Gauge("sim.events_fired", func() float64 { return float64(eng.Fired()) })
	reg.Gauge("sim.events_cancelled", func() float64 { return float64(eng.Cancelled()) })
	reg.Gauge("sim.heap_depth", func() float64 { return float64(eng.Pending()) })

	// Packet/frame pool: hit/miss rates of the allocation-free hot path.
	pool := m.Pool()
	reg.Gauge("pool.packet_new", func() float64 { return float64(pool.Stats.PacketNews) })
	reg.Gauge("pool.packet_reuse", func() float64 { return float64(pool.Stats.PacketReuses) })
	reg.Gauge("pool.frame_new", func() float64 { return float64(pool.Stats.FrameNews) })
	reg.Gauge("pool.frame_reuse", func() float64 { return float64(pool.Stats.FrameReuses) })

	// Channel aggregates plus the per-station (dense-slot) families.
	ch := m.Ch
	reg.Gauge("phy.transmissions", func() float64 { return float64(ch.Stats.Transmissions) })
	reg.Gauge("phy.decoded", func() float64 { return float64(ch.Stats.Decoded) })
	reg.Gauge("phy.collisions", func() float64 { return float64(ch.Stats.Collisions) })
	reg.Gauge("phy.captures", func() float64 { return float64(ch.Stats.Captures) })
	reg.Gauge("phy.erasures", func() float64 { return float64(ch.Stats.Erasures) })

	// Routing repair health: how many RerouteFlow calls found no usable
	// path and left a broken route in place (the flow stalls until
	// connectivity returns). Non-zero here is the signature of a
	// partitioned network, surfaced without a debugger.
	reg.Gauge("mesh.reroute_failures", func() float64 { return float64(m.RerouteFailures()) })
	// Packets that arrived at a node their flow's route no longer leaves
	// (in flight while a repair moved the route) and were dropped there.
	reg.Gauge("mesh.drops_noroute", func() float64 {
		var n uint64
		for _, f := range m.Flows() {
			n += m.NoRouteDrops(f)
		}
		return float64(n)
	})
	ids := ch.NodeIDs()
	labels := make([]string, len(ids))
	for i, id := range ids {
		labels[i] = id.String()
	}
	ch.SetCounters(phy.Counters{
		Tx:         reg.CounterVec("phy.tx", labels),
		Collisions: reg.CounterVec("phy.collision", labels),
		Captures:   reg.CounterVec("phy.capture", labels),
		Erasures:   reg.CounterVec("phy.erasure", labels),
	})

	// Per-node MAC and per-queue (per-link) metrics. Queues created after
	// this point (route repair, controller control queues) are not in the
	// catalog — snapshots cover the wired topology.
	for _, n := range m.Nodes() {
		mc := n.MAC
		p := fmt.Sprintf("mac.%v.", n.ID)
		reg.Gauge(p+"tx_data", func() float64 { return float64(mc.TxData) })
		reg.Gauge(p+"tx_retries", func() float64 { return float64(mc.TxRetries) })
		reg.Gauge(p+"tx_acked", func() float64 { return float64(mc.TxAcked) })
		reg.Gauge(p+"tx_failed", func() float64 { return float64(mc.TxFailed) })
		reg.Gauge(p+"rx_data", func() float64 { return float64(mc.RxData) })
		reg.Gauge(p+"rx_dup", func() float64 { return float64(mc.RxDup) })
		reg.Gauge(p+"queued", func() float64 { return float64(mc.TotalQueued()) })
		for qi, q := range mc.Queues() {
			q := q
			qp := fmt.Sprintf("%sq%d_to_%v.", p, qi, q.NextHop())
			reg.Gauge(qp+"depth", func() float64 { return float64(q.Len()) })
			reg.Gauge(qp+"enqueued", func() float64 { return float64(q.Enqueued) })
			reg.Gauge(qp+"dequeued", func() float64 { return float64(q.Dequeued) })
			reg.Gauge(qp+"peak_depth", func() float64 { return float64(q.PeakDepth) })
			reg.Gauge(qp+"retries", func() float64 { return float64(q.Retries) })
			reg.Gauge(qp+"dropped_overflow", func() float64 { return float64(q.DroppedOverflow) })
			reg.Gauge(qp+"dropped_retry", func() float64 { return float64(q.DroppedRetry) })
			reg.Gauge(qp+"dropped_flush", func() float64 { return float64(q.DroppedFlush) })
			reg.Gauge(qp+"cw", func() float64 { return float64(q.CWmin()) })
			reg.Gauge(qp+"cw_changes", func() float64 { return float64(q.CWChanges) })
		}
	}

	// Controller: explicit-signalling cost (0 for the message-free
	// families). Window changes are the per-queue cw_changes above —
	// every controller family ends at Queue.SetCWmin.
	if c := sc.Ctl; c != nil {
		reg.Gauge("ctl.overhead_bytes", func() float64 { return float64(c.OverheadBytes()) })
	}

	// Flows: delivered counts (gauges over the meters) and an end-to-end
	// delay histogram fed by its own mesh sink.
	type flowObs struct {
		flow FlowID
		hist *obs.Histogram
	}
	var fobs []flowObs
	for _, fs := range sc.specs {
		fp := fmt.Sprintf("flow.F%d.", fs.Flow)
		mt := sc.Meters[fs.Flow]
		reg.Gauge(fp+"delivered_pkts", func() float64 { return float64(mt.Delivered) })
		fobs = append(fobs, flowObs{fs.Flow, reg.Histogram(fp+"delay_sec", delayBucketsSec)})
	}
	if len(fobs) > 0 {
		hists := make(map[FlowID]*obs.Histogram, len(fobs))
		for _, fo := range fobs {
			hists[fo.flow] = fo.hist
		}
		sc.Mesh.AddSink(func(p *pkt.Packet, at sim.Time) {
			if h := hists[p.Flow]; h != nil {
				h.Observe((at - p.Created).Seconds())
			}
		})
	}
}
