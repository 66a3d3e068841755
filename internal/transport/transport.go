// Package transport implements a minimal reliable, window-based transport
// (cumulative-ACK go-back-N with AIMD congestion control) running over the
// mesh. The paper's §2.3 argues EZ-Flow works both for uni-directional
// traffic (UDP-like, no feedback) and bi-directional traffic (TCP-like,
// where data and acknowledgements share the wireless resource in opposite
// directions); this package provides the bi-directional workload used to
// test that claim.
//
// Data packets travel on the flow's forward route; transport ACKs travel as
// packets of a companion flow on the reversed route, so they contend for
// the same medium hop by hop, exactly like TCP over a mesh backhaul.
package transport

import (
	"ezflow/internal/mesh"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// AckFlowOffset maps a data flow id to its acknowledgement flow id.
const AckFlowOffset = 1000

// AckFlow returns the companion ACK flow of a data flow.
func AckFlow(f pkt.FlowID) pkt.FlowID { return f + AckFlowOffset }

// Config parameterises an AIMD sender.
type Config struct {
	InitWindow float64  // initial congestion window in packets
	MaxWindow  float64  // upper bound on the window
	Bytes      int      // data packet size
	AckBytes   int      // transport ACK packet size
	RTO        sim.Time // retransmission timeout
}

// DefaultConfig returns TCP-flavoured defaults sized for the 1 Mb/s mesh.
func DefaultConfig() Config {
	return Config{
		InitWindow: 2,
		MaxWindow:  64,
		Bytes:      pkt.DefaultPayloadBytes,
		AckBytes:   40,
		RTO:        3 * sim.Second,
	}
}

// Conn is one reliable connection: an AIMD sender at the flow's source and
// a cumulative-ACK receiver at its destination.
type Conn struct {
	m    *mesh.Mesh
	flow pkt.FlowID
	src  pkt.NodeID
	dst  pkt.NodeID
	cfg  Config

	// Sender state.
	cwnd      float64
	nextSeq   uint64 // next sequence to send for the first time
	sendBase  uint64 // oldest unacknowledged sequence
	rtoTimer  sim.Timer
	timeoutFn func() // bound once so arming the RTO does not allocate
	running   bool

	// Receiver state.
	recvNext uint64 // next in-order sequence expected

	// Stats.
	Sent        uint64 // data packets injected (including retransmits)
	Retransmits uint64
	Delivered   uint64 // distinct in-order packets at the receiver
	AcksSent    uint64
	Timeouts    uint64
	// WindowTrace samples (time, cwnd) at every change.
	WindowTrace []WindowPoint
}

// WindowPoint is one congestion-window sample.
type WindowPoint struct {
	At   sim.Time
	Cwnd float64
}

// New creates a connection for the given data flow. Both the forward route
// (flow) and the reverse route (AckFlow(flow)) must already be installed in
// the mesh. The connection registers itself on the mesh sink.
func New(m *mesh.Mesh, flow pkt.FlowID, cfg Config) *Conn {
	route := m.Route(flow)
	if len(route) < 2 {
		panic("transport: data flow has no route")
	}
	back := m.Route(AckFlow(flow))
	if len(back) < 2 {
		panic("transport: ACK flow has no route; install the reversed path first")
	}
	if cfg.InitWindow <= 0 {
		cfg = DefaultConfig()
	}
	c := &Conn{
		m: m, flow: flow,
		src: route[0], dst: route[len(route)-1],
		cfg:      cfg,
		cwnd:     cfg.InitWindow,
		nextSeq:  1,
		sendBase: 1,
		recvNext: 1,
	}
	c.timeoutFn = c.onTimeout
	m.AddSink(c.onSink)
	return c
}

// InFlight reports the number of unacknowledged packets.
func (c *Conn) InFlight() uint64 { return c.nextSeq - c.sendBase }

// Start begins transmission (greedy source: always data to send).
func (c *Conn) Start() {
	if c.running {
		return
	}
	c.running = true
	c.pump()
}

// pump injects new data while the window allows.
func (c *Conn) pump() {
	if !c.running {
		return
	}
	for float64(c.InFlight()) < c.cwnd {
		p := c.m.Pool().Packet(c.flow, c.nextSeq, c.src, c.dst, c.cfg.Bytes, c.m.Eng.Now())
		c.nextSeq++
		c.Sent++
		c.m.Inject(p)
		p.Release()
	}
	c.armRTO()
}

func (c *Conn) armRTO() {
	if c.rtoTimer.Pending() {
		return
	}
	if c.InFlight() == 0 {
		return
	}
	c.rtoTimer = c.m.Eng.Schedule(c.cfg.RTO, c.timeoutFn)
}

// onSink handles packets reaching their destination anywhere in the mesh;
// the connection reacts to its data arriving at dst and its ACKs arriving
// back at src.
func (c *Conn) onSink(p *pkt.Packet, _ sim.Time) {
	switch {
	case p.Flow == c.flow && p.Dst == c.dst:
		c.onData(p)
	case p.Flow == AckFlow(c.flow) && p.Dst == c.src:
		c.onAck(p)
	}
}

// onData runs at the receiver: advance the cumulative pointer and send an
// ACK carrying it (go-back-N: out-of-order data re-acknowledges recvNext).
func (c *Conn) onData(p *pkt.Packet) {
	if p.Seq == c.recvNext {
		c.recvNext++
		c.Delivered++
	}
	// Cumulative ACK: Seq carries the highest in-order sequence received.
	ack := c.m.Pool().Packet(AckFlow(c.flow), c.recvNext-1, c.dst, c.src,
		c.cfg.AckBytes, c.m.Eng.Now())
	c.AcksSent++
	c.m.Inject(ack)
	ack.Release()
}

// onAck runs at the sender: slide the window (AIMD additive increase).
func (c *Conn) onAck(p *pkt.Packet) {
	if p.Seq < c.sendBase {
		return // stale
	}
	acked := p.Seq - c.sendBase + 1
	c.sendBase = p.Seq + 1
	c.rtoTimer.Cancel()
	// Additive increase: one packet per window's worth of ACKs.
	c.setCwnd(c.cwnd + float64(acked)/c.cwnd)
	c.pump()
}

// onTimeout halves the window and goes back to the oldest unacked packet.
func (c *Conn) onTimeout() {
	if !c.running {
		return
	}
	c.Timeouts++
	c.setCwnd(c.cwnd / 2)
	// Go-back-N: resend everything outstanding.
	outstanding := c.InFlight()
	c.nextSeq = c.sendBase
	for i := uint64(0); i < outstanding; i++ {
		p := c.m.Pool().Packet(c.flow, c.nextSeq, c.src, c.dst, c.cfg.Bytes, c.m.Eng.Now())
		c.nextSeq++
		c.Sent++
		c.Retransmits++
		c.m.Inject(p)
		p.Release()
	}
	c.armRTO()
}

func (c *Conn) setCwnd(w float64) {
	if w < 1 {
		w = 1
	}
	if w > c.cfg.MaxWindow {
		w = c.cfg.MaxWindow
	}
	c.cwnd = w
	c.WindowTrace = append(c.WindowTrace, WindowPoint{c.m.Eng.Now(), w})
}

// InstallBidirectional installs both the forward route and the reversed
// ACK route for a flow in one call.
func InstallBidirectional(m *mesh.Mesh, flow pkt.FlowID, path []pkt.NodeID) {
	m.SetRoute(flow, path)
	back := make([]pkt.NodeID, len(path))
	for i, n := range path {
		back[len(path)-1-i] = n
	}
	m.SetRoute(AckFlow(flow), back)
}
