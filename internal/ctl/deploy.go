package ctl

import (
	"ezflow/internal/mac"
	"ezflow/internal/mesh"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// Deployment wires one hook-based Controller over a mesh: one Relay per
// queue whose next hop is a relay of some flow (the paper's EZ-Flow
// coverage rule — queues draining straight into a destination have no
// downstream buffer to protect). It implements Instance.
type Deployment struct {
	// Ctrl is the deployed controller.
	Ctrl Controller
	// Relays lists every attached relay in deterministic (node, queue
	// creation) order.
	Relays []*Relay

	tick     sim.Time
	attached map[*mac.Queue]bool
	// own marks queues created by the controller itself (ControlQueue);
	// Extend never attaches a controller to them, so control traffic is
	// never recursively controlled.
	own      map[*mac.Queue]bool
	ctlQ     map[ctlQKey]*mac.Queue
	overhead uint64
}

// ctlQKey identifies one node's control queue toward a peer.
type ctlQKey struct {
	from, to pkt.NodeID
}

// Deploy installs ctrl over the mesh with a per-relay tick period (0 = no
// ticks) and returns the deployment handle.
func Deploy(m *mesh.Mesh, ctrl Controller, tick sim.Time) *Deployment {
	d := &Deployment{
		Ctrl:     ctrl,
		tick:     tick,
		attached: make(map[*mac.Queue]bool),
		own:      make(map[*mac.Queue]bool),
		ctlQ:     make(map[ctlQKey]*mac.Queue),
	}
	d.Extend(m)
	return d
}

// Extend implements Instance: it attaches the controller to queues that
// appeared since the previous pass (deployment, then after every route
// repair). Already-controlled queues keep their state and hooks.
func (d *Deployment) Extend(m *mesh.Mesh) {
	relays := m.RelaySet()
	for _, n := range m.Nodes() {
		for _, q := range n.Queues() {
			if d.attached[q] || d.own[q] || !relays[q.NextHop()] {
				continue
			}
			d.attached[q] = true
			r := &Relay{
				Node:      n.ID,
				Successor: q.NextHop(),
				Caps:      NewCaps(q),
				Eng:       n.Engine(),
				MAC:       n.MAC,
				Pool:      m.Pool(),
				Mesh:      m,
				Dep:       d,
			}
			d.Relays = append(d.Relays, r)
			d.Ctrl.Attach(r)
			d.wire(r, q)
		}
	}
}

// wire binds the relay's hooks to its MAC and queue. Closures are built
// once per relay; the per-event path through them allocates nothing.
func (d *Deployment) wire(r *Relay, q *mac.Queue) {
	ctrl := d.Ctrl
	q.SetHooks(
		func(p *pkt.Packet) { ctrl.OnEnqueue(r, p) },
		func(p *pkt.Packet) { ctrl.OnDequeue(r, p) },
	)
	r.MAC.AddTxStamp(func(f *pkt.Frame) { ctrl.OnTransmit(r, f) }, 0)
	r.MAC.AddTap(func(f *pkt.Frame, ci pkt.CaptureInfo) { ctrl.OnOverhear(r, f, ci) })
	if d.tick > 0 {
		var fire func()
		fire = func() {
			ctrl.OnTick(r)
			r.Eng.Schedule(d.tick, fire)
		}
		r.Eng.Schedule(d.tick, fire)
	}
}

// OverheadBytes implements Instance.
func (d *Deployment) OverheadBytes() uint64 { return d.overhead }

// AddOverhead counts control bytes put (or scheduled) on the air.
func (d *Deployment) AddOverhead(n int) { d.overhead += uint64(n) }

// ControlQueue returns the node's dedicated control-frame queue toward
// peer, creating (and claiming) it on first use. Claimed queues are never
// attached to a controller, and one queue is shared by every relay of the
// node, so repeated calls are idempotent.
func (d *Deployment) ControlQueue(m *mac.MAC, peer pkt.NodeID) *mac.Queue {
	key := ctlQKey{m.ID(), peer}
	if q, ok := d.ctlQ[key]; ok {
		return q
	}
	q := m.NewQueue(peer)
	d.ctlQ[key] = q
	d.own[q] = true
	return q
}
