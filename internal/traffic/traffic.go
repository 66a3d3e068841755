// Package traffic provides the source agents that drive the mesh: constant
// bit rate (the paper's 2 Mb/s CBR saturating sources), Poisson arrivals,
// and on/off activity schedules (both simulation scenarios switch flows on
// and off mid-run to exercise EZ-Flow's adaptation to changing traffic
// matrices).
package traffic

import (
	"ezflow/internal/mesh"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// Source generates packets for one flow and injects them at its source node.
// A new source is stopped. ApplySchedule puts its activity on the engine
// clock, one start and one stop per segment; Start and Stop switch it
// at once, as the dynamics layer's flow events do.
type Source struct {
	m       *mesh.Mesh
	node    *mesh.Node // the source node, whose queue arrivals enter
	flow    pkt.FlowID
	dst     pkt.NodeID
	bytes   int
	period  sim.Time // CBR inter-packet gap; 0 disables CBR
	poisson bool

	seq    uint64
	active bool
	timer  sim.Timer
	emitFn func() // bound once so rescheduling does not allocate
	// Generated counts every arrival; Injected excludes those dropped
	// at a full source queue.
	Generated uint64
	Injected  uint64
}

// NewCBR creates a constant-bit-rate source for flow at rate bits/s with
// the given packet size in bytes. The flow's route must already be
// installed; the source and destination are taken from it.
func NewCBR(m *mesh.Mesh, flow pkt.FlowID, rateBps float64, bytes int) *Source {
	route := m.Route(flow)
	if len(route) < 2 {
		panic("traffic: flow has no route")
	}
	if bytes <= 0 {
		bytes = pkt.DefaultPayloadBytes
	}
	s := &Source{
		m: m, node: m.Node(route[0]), flow: flow, dst: route[len(route)-1],
		bytes: bytes, period: cbrGap(bytes, rateBps),
	}
	s.emitFn = s.emit
	return s
}

// NewPoisson creates a Poisson source with the given mean rate in bits/s.
func NewPoisson(m *mesh.Mesh, flow pkt.FlowID, rateBps float64, bytes int) *Source {
	s := NewCBR(m, flow, rateBps, bytes)
	s.poisson = true
	return s
}

// SetRate changes the source's rate in bit/s — the traffic-dynamics knob
// (rate steps and surges) of the dynamics layer. The new inter-packet gap
// applies from the next emission; an emission already scheduled fires at
// its original time, so a rate change never reorders past events.
func (s *Source) SetRate(rateBps float64) {
	if rateBps <= 0 {
		panic("traffic: SetRate with non-positive rate")
	}
	s.period = cbrGap(s.bytes, rateBps)
}

// cbrGap is the inter-packet gap that produces rateBps with the given
// packet size, clamped to at least one virtual nanosecond.
func cbrGap(bytes int, rateBps float64) sim.Time {
	gap := sim.Time(float64(bytes*8) / rateBps * float64(sim.Second))
	if gap <= 0 {
		gap = sim.Nanosecond
	}
	return gap
}

// Start begins generation immediately.
func (s *Source) Start() {
	if s.active {
		return
	}
	s.active = true
	s.emit()
}

// Stop halts generation immediately. In-flight packets keep travelling.
func (s *Source) Stop() {
	s.active = false
	s.timer.Cancel()
}

// emit generates one arrival and schedules the next. An arrival that
// finds the source queue full is dropped there before any packet is
// built (mac.Queue.DropIfFull): the drop counts and records as an
// overflowing Enqueue would, and building a packet draws no random
// number, so the run is the same either way. The queue is looked up per
// arrival (Node.InjectQueue), so it follows every SetRoute.
func (s *Source) emit() {
	if !s.active {
		return
	}
	s.seq++
	s.Generated++
	q := s.node.InjectQueue(s.flow)
	if !q.DropIfFull(s.flow, s.seq) {
		p := s.m.Pool().Packet(s.flow, s.seq, s.node.ID, s.dst, s.bytes, s.m.Eng.Now())
		if q.Enqueue(p) {
			s.Injected++
		}
		p.Release() // the source queue holds its own reference now
	}
	if !s.poisson {
		s.timer = s.m.Eng.ScheduleFixed(s.period, s.emitFn) // CBR: one gap per rate
		return
	}
	gap := sim.Time(s.m.Eng.Rand().ExpFloat64() * float64(s.period))
	s.timer = s.m.Eng.Schedule(gap, s.emitFn)
}
