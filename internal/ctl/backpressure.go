package ctl

import (
	"ezflow/internal/mesh"
	"ezflow/internal/pkt"
)

// The backpressure controller's window map: a backlog differential of
// diff > 0 packets selects bpRefWindow/diff, floored at bpMinWindow (it
// never reaches bpMaxWindow, since bpRefWindow is smaller); a
// non-positive differential holds back at bpMaxWindow.
const (
	bpRefWindow = 512
	bpMinWindow = 16
	bpMaxWindow = 2048
)

// backpressure implements queue-differential (backpressure) scheduling
// with real message passing: every data frame carries the transmitter's
// per-successor backlog in the optional 2-byte BP header (charged on the
// air), and every relay maps the differential between its own backlog
// toward the successor and the successor's advertised backlog to an
// admission window — large positive differential, aggressive window;
// non-positive differential, hold back. It is the continuous-window
// cousin of the DiffQ baseline, at per-successor rather than per-node
// granularity: exactly the class of explicit-signalling scheme the
// paper's EZ-Flow claims to match without any of these bytes.
type backpressure struct {
	NopHooks
}

// bpState is the per-relay state: the successor's most recently overheard
// backlog advertisement.
type bpState struct {
	succLen int
}

// Name implements Controller.
func (b *backpressure) Name() string { return "backpressure" }

// Attach implements Controller.
func (b *backpressure) Attach(r *Relay) { r.State = &bpState{} }

// OnOverhear learns the successor's backlog from any stamped frame it
// transmits and retunes the admission window. Zero allocations: integer
// state update plus a window write.
func (b *backpressure) OnOverhear(r *Relay, f *pkt.Frame, _ pkt.CaptureInfo) {
	if f.Type != pkt.FrameData || !f.HasBP || f.TxSrc != r.Successor {
		return
	}
	st := r.State.(*bpState)
	st.succLen = f.BPLen
	b.retune(r, st)
}

// OnEnqueue retunes on local backlog growth so a relay reacts to its own
// queue building even while the successor stays silent.
func (b *backpressure) OnEnqueue(r *Relay, _ *pkt.Packet) {
	b.retune(r, r.State.(*bpState))
}

// OnDequeue retunes on local drain for the same reason.
func (b *backpressure) OnDequeue(r *Relay, _ *pkt.Packet) {
	b.retune(r, r.State.(*bpState))
}

// retune maps the backlog differential to the admission window.
func (b *backpressure) retune(r *Relay, st *bpState) {
	diff := r.MAC.QueuedTo(r.Successor) - st.succLen
	w := bpMaxWindow
	if diff > 0 {
		w = max(bpRefWindow/diff, bpMinWindow)
	}
	r.Caps.SetWindow(w)
}

// BPInstance is the deployed backpressure controller: the generic relay
// deployment plus a node-wide advertisement stamp. Advertisement is a
// node property, not a relay property — the scheme modifies the packet
// format everywhere, so even a node that needs no window control (the
// last relay before a destination, whose queue the coverage rule leaves
// alone) still piggybacks its backlog, and its upstream relay is never
// blind at exactly the hop it protects.
type BPInstance struct {
	*Deployment
	stamped map[pkt.NodeID]bool
}

// Extend implements Instance: attach window control to new relay queues,
// then make sure every node (new ones included, after route repair)
// advertises its per-successor backlog on every outgoing data frame.
func (b *BPInstance) Extend(m *mesh.Mesh) {
	b.Deployment.Extend(m)
	for _, n := range m.Nodes() {
		if b.stamped[n.ID] {
			continue
		}
		b.stamped[n.ID] = true
		mc, dep := n.MAC, b.Deployment
		mc.AddTxStamp(func(f *pkt.Frame) {
			if f.Type != pkt.FrameData || f.HasBP || f.Payload == nil {
				return
			}
			f.HasBP = true
			f.BPLen = mc.QueuedTo(f.TxDst)
			dep.AddOverhead(pkt.BPHeaderBytes)
		}, pkt.BPHeaderBytes)
	}
}

func init() {
	Register(Info{
		Name:    "backpressure",
		Summary: "queue-differential scheduling; piggybacks backlogs on data frames",
		Deploy: func(m *mesh.Mesh, _ Options) Instance {
			b := &BPInstance{
				Deployment: Deploy(m, &backpressure{}, 0),
				stamped:    make(map[pkt.NodeID]bool),
			}
			b.Extend(m)
			return b
		},
	})
}
