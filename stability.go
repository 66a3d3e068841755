package ezflow

import (
	"sort"

	"ezflow/internal/stats"
)

// StabilityResult quantifies how a run recovered from mid-run
// perturbations — the metrics the dynamics subsystem adds on top of the
// paper's steady-state evaluation. All windows are measured against the
// first fault instant: recovery time deliberately includes the outage
// itself, so a 30-second flap can never "recover" in under 30 seconds.
type StabilityResult struct {
	// FaultAt is when the first fault event fired.
	FaultAt Time
	// Tolerance is the recovery threshold fraction x (a flow has
	// recovered once its throughput is back within x of pre-fault).
	Tolerance float64
	// PreFaultKbps is each flow's mean throughput over the bins that
	// end in [WarmupSkip, FaultAt], the last of them the bin the fault
	// closes.
	PreFaultKbps map[FlowID]float64
	// RecoverySec maps each flow to the seconds from FaultAt until its
	// binned throughput first returned to >= (1-x)·pre-fault and held for
	// the following bin; negative means it never recovered in the run.
	// Flows with no pre-fault traffic (they arrived with or after the
	// fault) have no baseline to recover to and are omitted.
	RecoverySec map[FlowID]float64
	// Recovered reports whether every flow with pre-fault traffic
	// recovered.
	Recovered bool
	// MaxRecoverySec is the slowest flow's recovery time (0 when no flow
	// needed to recover, meaningless when !Recovered).
	MaxRecoverySec float64
	// MaxQueueExcursion is the largest sampled MAC backlog at any relay
	// (a node interior to some route) from FaultAt onward — the "how far
	// did buffers blow out" number. Source nodes are excluded: a
	// saturating source keeps its own queue pinned at the cap by design,
	// which says nothing about network stability.
	MaxQueueExcursion float64
	// TailMaxQueuePkts is the largest relay backlog sampled in the final
	// third of the run — the divergence check. A controller that
	// restabilised after the perturbation has drained its buffers by
	// then; a turbulent one keeps hitting the buffer cap.
	TailMaxQueuePkts float64
	// FairnessTrajectory is Jain's index across flows per throughput bin
	// over the whole run, showing fairness collapse and repair around the
	// fault.
	FairnessTrajectory *stats.Series
}

// SlowestRecoverySec condenses s into one recovery figure: the slowest
// flow's recovery time, -1 when s is nil (the run had no fault) and -2
// when some flow never recovered.
func (s *StabilityResult) SlowestRecoverySec() float64 {
	switch {
	case s == nil:
		return -1
	case !s.Recovered:
		return -2
	}
	return s.MaxRecoverySec
}

// computeStability derives the recovery metrics after a dynamics-enabled
// run; it returns nil when no fault event fired.
func computeStability(sc *Scenario, res *Result) *StabilityResult {
	faults := sc.Dyn.FaultTimes
	if len(faults) == 0 {
		return nil
	}
	fault := faults[0]
	st := &StabilityResult{
		FaultAt:      fault,
		Tolerance:    sc.Cfg.RecoveryTolerance,
		PreFaultKbps: make(map[FlowID]float64, len(res.Flows)),
		RecoverySec:  make(map[FlowID]float64, len(res.Flows)),
		Recovered:    true,
	}
	// Throughput points are stamped with their bin end and Window is
	// half-open, so the window runs to fault+1 ns: a bin that ends
	// exactly at the fault measured only pre-fault traffic and belongs
	// to the baseline.
	for f, fr := range res.Flows {
		pre := fr.Throughput.Window(sc.Cfg.WarmupSkip, fault+1).Mean()
		if pre <= 0 {
			// The fault predates the end of the warmup window; fall back
			// to everything before the fault so an early fault still
			// gets a baseline instead of being reported as "recovered".
			pre = fr.Throughput.Window(0, fault+1).Mean()
		}
		st.PreFaultKbps[f] = pre
		if pre <= 0 {
			// No pre-fault traffic (the flow arrived with or after the
			// fault): there is no baseline to recover to, so the flow is
			// left out of RecoverySec rather than faking a 0 s recovery.
			continue
		}
		rec := recoveryTime(fr.Throughput.Points, fault, (1-st.Tolerance)*pre)
		st.RecoverySec[f] = rec
		if rec < 0 {
			st.Recovered = false
		} else if rec > st.MaxRecoverySec {
			st.MaxRecoverySec = rec
		}
	}
	// Every node that relayed at any point of the run counts: a relay
	// the BFS repair routed around is exactly the one holding the fault
	// backlog, so the post-run routes alone would miss it.
	relays := sc.Dyn.RelaysSeen()
	tail := sc.Cfg.Duration / 3 * 2
	for id, s := range res.QueueTraces {
		if !relays[id] {
			continue
		}
		for _, p := range s.Points {
			if p.T >= fault && p.V > st.MaxQueueExcursion {
				st.MaxQueueExcursion = p.V
			}
			if p.T >= tail && p.V > st.TailMaxQueuePkts {
				st.TailMaxQueuePkts = p.V
			}
		}
	}
	st.FairnessTrajectory = fairnessTrajectory(res)
	return st
}

// recoveryTime scans a flow's throughput bins (each stamped with its bin
// end) for the first bin after the fault at or above the threshold that
// the following bin sustains — one good bin alone is a blip, not
// recovery; the run's final bin counts on its own. It returns the seconds
// from fault to that bin's end, or -1 if the flow never recovered.
func recoveryTime(pts []stats.Point, fault Time, threshold float64) float64 {
	for i, p := range pts {
		if p.T <= fault || p.V < threshold {
			continue
		}
		if i+1 < len(pts) && pts[i+1].V < threshold {
			continue
		}
		return (p.T - fault).Seconds()
	}
	return -1
}

// fairnessTrajectory computes Jain's index across all flows for every
// throughput bin. Flow meters share one bin grid (bins start at t=0 and
// empty bins are emitted as zeros), so bins align by index.
func fairnessTrajectory(res *Result) *stats.Series {
	flows := make([]FlowID, 0, len(res.Flows))
	for f := range res.Flows {
		flows = append(flows, f)
	}
	sort.Slice(flows, func(i, j int) bool { return flows[i] < flows[j] })
	if len(flows) == 0 {
		return &stats.Series{Name: "fairness"}
	}
	n := len(res.Flows[flows[0]].Throughput.Points)
	for _, f := range flows[1:] {
		if l := len(res.Flows[f].Throughput.Points); l < n {
			n = l
		}
	}
	out := &stats.Series{Name: "fairness"}
	vals := make([]float64, len(flows))
	for i := 0; i < n; i++ {
		for j, f := range flows {
			vals[j] = res.Flows[f].Throughput.Points[i].V
		}
		out.Add(res.Flows[flows[0]].Throughput.Points[i].T, stats.JainIndex(vals))
	}
	return out
}
