// Package ctl is the pluggable congestion-controller subsystem: it turns
// the simulator's control plane from a hardcoded mode switch into an
// extension point. A Controller is a per-relay control algorithm driven by
// five hooks (enqueue, dequeue, transmit, overhear, tick) whose only
// actuator is the Caps handle — the MAC admission window (CWmin) of the
// queue it controls, the same single knob EZ-Flow restricts itself to.
//
// Controllers register themselves by name (Register/ByName) and every
// layer above — ezflow.Config.Controller, scenario JSON files, the
// campaign "controller" sweep axis, and the ezsim/ezcampaign/ezbench CLIs
// — selects them from the registry, so adding a controller is one file
// plus an init function.
//
// This package is the whole control plane: six families ship with it,
// completing the evaluation matrix the paper argues against (hop-by-hop
// schemes that rely on explicit signalling or offline tuning, vs
// EZ-Flow's passive estimation):
//
//   - ezflow: the paper's BOE+CAA pair, message-free (internal/ezflow),
//     deployed on the relay hooks like every hook-based family: it
//     records its own first attempts (OnTransmit) and sniffs its
//     successor's forwards (OnOverhear);
//   - penalty: the static source throttling of [9], tuned offline;
//   - diffq: DiffQ-style differential backlog, piggybacking node backlogs
//     on data frames (4 bytes each);
//   - backpressure: queue-differential scheduling that piggybacks real
//     queue lengths on data frames (a 2-byte header charged on the air);
//   - feedback: explicit per-hop rate-feedback control frames, injected
//     into the MAC and consuming airtime like any data frame;
//   - staticcap: a fixed per-hop admission window, the degenerate control.
//
// Plain 802.11 deploys no controller at all (IsNone). The legacy
// ezflow.Mode values are thin wrappers naming ezflow, penalty or diffq.
// ezflow.Config.Ctl (Options) is the only place a run tunes a controller,
// and it tunes two: EZ-Flow (CAA thresholds, sniff loss) and the penalty
// factor q. The other families run with fixed parameters, constants in
// their own files.
//
// Outgoing-frame hooks are MAC stamps that declare the on-air bytes they
// may add, so an RTS reserves them in its NAV: OnTransmit declares none,
// and a header charged on the air (backpressure's) is a node stamp that
// declares its size.
//
// Determinism contract: controllers run inside one scenario's
// single-threaded event loop. They must derive randomness only from the
// scenario engine, must not iterate Go maps when the order reaches any
// actuator, and may inject control frames only through
// Deployment.ControlQueue so deployment never attaches a controller to a
// controller's own traffic.
package ctl

import (
	"ezflow/internal/mac"
	"ezflow/internal/mesh"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// Caps is the control surface a controller may actuate: the MAC admission
// window of exactly one relay queue. It is the ctl-layer spelling of the
// paper's constraint that the contention window is the only MAC-level
// knob a deployable controller can turn.
type Caps struct {
	q *mac.Queue
}

// NewCaps wraps a MAC queue as a control surface.
func NewCaps(q *mac.Queue) Caps { return Caps{q: q} }

// Window reports the queue's current admission window (CWmin).
func (c Caps) Window() int { return c.q.CWmin() }

// SetWindow sets the queue's admission window; the MAC clamps it to the
// hardware cap and the absolute 2^15 bound.
func (c Caps) SetWindow(w int) { c.q.SetCWmin(w) }

// Len reports the instantaneous backlog of the controlled queue.
func (c Caps) Len() int { return c.q.Len() }

// Queue exposes the underlying MAC queue for instrumentation (traces,
// tests). Controllers themselves should stick to Window/SetWindow/Len.
func (c Caps) Queue() *mac.Queue { return c.q }

// Relay is one controlled queue: the (node, successor) pair the paper
// deploys one EZ-Flow program per, generalised to any controller. The
// deployment builds one Relay per qualifying queue and passes it to every
// hook, so controllers keep per-relay state in State (set once in Attach;
// a pointer, so steady-state hooks never allocate).
type Relay struct {
	// Node is the station running the controller.
	Node pkt.NodeID
	// Successor is the next hop whose buffer is being protected.
	Successor pkt.NodeID
	// Caps is the admission-window actuator for the controlled queue.
	Caps Caps
	// Eng is the scenario's engine (virtual time, deterministic RNG).
	Eng *sim.Engine
	// MAC is the node's MAC instance (read-only backlog queries).
	MAC *mac.MAC
	// Pool is the scenario's packet pool, for injected control frames.
	Pool *pkt.Pool
	// Mesh is the backhaul the relay belongs to (read-only route queries,
	// e.g. to find upstream hops).
	Mesh *mesh.Mesh
	// Dep is the deployment that owns this relay (overhead accounting,
	// control-queue creation).
	Dep *Deployment
	// State is controller-private per-relay state, set in Attach.
	State any
}

// Controller is a pluggable congestion-control algorithm. One instance is
// created per scenario (by its registry factory) and attached to every
// relay queue; hooks receive the Relay they fire for. OnOverhear and
// OnDequeue are on the forwarding hot path and must not allocate — the
// bench gate pins them at zero allocs/op.
type Controller interface {
	// Name reports the registry name.
	Name() string
	// Attach binds the controller to one relay queue. It runs once per
	// queue at deployment, and again for queues that route repair creates
	// mid-run. Attach may allocate (state, control queues, tickers).
	Attach(r *Relay)
	// OnEnqueue observes a packet accepted into the controlled queue.
	OnEnqueue(r *Relay, p *pkt.Packet)
	// OnDequeue observes a packet leaving the controlled queue through the
	// MAC (acknowledged or dropped at the retry limit). Queue flushes from
	// node churn bypass it.
	OnDequeue(r *Relay, p *pkt.Packet)
	// OnTransmit runs on every outgoing data frame of the relay's node —
	// every attempt, before air time is computed. The deployment registers
	// it as a stamp that adds no on-air bytes, so it may observe the frame
	// or set off-air fields but must not grow it; a header charged on the
	// air (backpressure's Frame.HasBP/BPLen) goes through a node stamp
	// that declares its bytes (mac.MAC.AddTxStamp), so an RTS reserves
	// them. Check f.Retry for first-attempt-only semantics.
	OnTransmit(r *Relay, f *pkt.Frame)
	// OnOverhear observes every frame the relay's node decodes in monitor
	// mode (its own unicast traffic included).
	OnOverhear(r *Relay, f *pkt.Frame, ci pkt.CaptureInfo)
	// OnTick fires every Deployment tick period (0 = never).
	OnTick(r *Relay)
}

// NopHooks is an embeddable base supplying no-op implementations of every
// Controller hook except Attach, so a controller spells out only Attach
// (where it builds its per-relay state) and the hooks it uses.
type NopHooks struct{}

// OnEnqueue implements Controller with a no-op.
func (NopHooks) OnEnqueue(*Relay, *pkt.Packet) {}

// OnDequeue implements Controller with a no-op.
func (NopHooks) OnDequeue(*Relay, *pkt.Packet) {}

// OnTransmit implements Controller with a no-op.
func (NopHooks) OnTransmit(*Relay, *pkt.Frame) {}

// OnOverhear implements Controller with a no-op.
func (NopHooks) OnOverhear(*Relay, *pkt.Frame, pkt.CaptureInfo) {}

// OnTick implements Controller with a no-op.
func (NopHooks) OnTick(*Relay) {}
