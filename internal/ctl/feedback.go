package ctl

import (
	"sort"

	"ezflow/internal/mac"
	"ezflow/internal/mesh"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// FeedbackFlow is the reserved flow id of injected rate-feedback control
// frames. No real flow can use it (scenario flows are positive), and the
// metering layer ignores packets of unknown flows, so control traffic is
// visible only as airtime and overhead bytes.
const FeedbackFlow = pkt.FlowID(-1)

// The feedback controller's fixed parameters.
const (
	// fbPeriod is the feedback interval: every fbPeriod each relay
	// advertises the admission window its upstream hops should use.
	fbPeriod = 250 * sim.Millisecond
	// fbTargetQueue is the backlog the relay regulates toward, in
	// packets: above it the advertised window doubles, at or below half
	// of it the window halves.
	fbTargetQueue = 8
	// fbPayloadBytes is the network-layer size of one feedback message,
	// charged on the air like any data packet, plus the MAC header and
	// the ACK it elicits.
	fbPayloadBytes = 16
	// fbMinWindow and fbMaxWindow bound the advertised window. The
	// window rides in a 16-bit field of the control frame, which
	// fbMaxWindow fits; it is also below the MAC's bound
	// mac.AbsoluteCWmax = 2^15, so the MAC applies it unclamped.
	fbMinWindow = 16
	fbMaxWindow = 8192
)

// feedback implements explicit per-hop rate feedback — the
// message-passing end of the design space the paper argues against. Every
// fbPeriod each relay compares its backlog to the target and unicasts the
// resulting admission window to each upstream hop as an injected control
// frame (a real data frame on a dedicated control queue: it contends,
// consumes airtime, and is ACKed). Upstream relays overhear feedback
// addressed to them and set their admission window accordingly. All
// coordination costs bytes on the air; OverheadBytes reports them.
type feedback struct {
	NopHooks
}

// fbState is the per-relay state: the window currently advertised
// upstream, the control-frame sequence counter, and the control queues
// toward each upstream hop.
type fbState struct {
	window int
	seq    uint64
	preds  []*mac.Queue
}

// Name implements Controller.
func (fb *feedback) Name() string { return "feedback" }

// Attach computes the relay's upstream hops from the installed routes
// (nodes whose traffic transits this relay's controlled queue) and creates
// one control queue toward each.
func (fb *feedback) Attach(r *Relay) {
	st := &fbState{window: mac.DefaultCWmin}
	r.State = st
	fb.refreshPreds(r, st)
}

// refreshPreds rebuilds the upstream-hop list; Attach runs it per relay,
// and FBInstance.Extend re-runs it for every surviving relay after route
// repair, so feedback follows the repaired routes instead of advertising
// to a predecessor that is no longer (or no longer the only one)
// upstream.
func (fb *feedback) refreshPreds(r *Relay, st *fbState) {
	seen := map[pkt.NodeID]bool{}
	var preds []pkt.NodeID
	for _, f := range r.Mesh.Flows() {
		route := r.Mesh.Route(f)
		for i := 1; i < len(route)-1; i++ {
			if route[i] != r.Node || route[i+1] != r.Successor {
				continue
			}
			if p := route[i-1]; !seen[p] {
				seen[p] = true
				preds = append(preds, p)
			}
		}
	}
	sort.Slice(preds, func(i, j int) bool { return preds[i] < preds[j] })
	st.preds = st.preds[:0]
	for _, p := range preds {
		st.preds = append(st.preds, r.Dep.ControlQueue(r.MAC, p))
	}
}

// OnTick adapts the advertised window multiplicatively against the target
// backlog and unicasts it to every upstream hop. A control queue already
// holding two unsent advertisements is skipped — stale feedback is
// superseded, not queued.
func (fb *feedback) OnTick(r *Relay) {
	st := r.State.(*fbState)
	qlen := r.Caps.Len()
	switch {
	case qlen > fbTargetQueue:
		if st.window *= 2; st.window > fbMaxWindow {
			st.window = fbMaxWindow
		}
	case qlen*2 <= fbTargetQueue:
		if st.window /= 2; st.window < fbMinWindow {
			st.window = fbMinWindow
		}
	}
	now := r.Eng.Now()
	for _, q := range st.preds {
		if q.Len() >= 2 {
			continue
		}
		st.seq++
		p := r.Pool.Packet(FeedbackFlow, st.seq<<16|uint64(st.window),
			r.Node, q.NextHop(), fbPayloadBytes, now)
		q.Enqueue(p)
		p.Release()
		r.Dep.AddOverhead(pkt.MACHeaderBytes + fbPayloadBytes + pkt.AckBytes)
	}
}

// OnOverhear applies feedback advertised by the relay's successor: the
// window rides in the low 16 bits of the control packet's sequence number.
// Zero allocations.
func (fb *feedback) OnOverhear(r *Relay, f *pkt.Frame, _ pkt.CaptureInfo) {
	if f.Type != pkt.FrameData || f.TxSrc != r.Successor {
		return
	}
	p := f.Payload
	if p == nil || p.Flow != FeedbackFlow || p.Dst != r.Node {
		return
	}
	r.Caps.SetWindow(int(p.Seq & 0xffff))
}

// FBInstance is the deployed feedback controller: the generic relay
// deployment plus post-repair refresh of every relay's upstream-hop list.
type FBInstance struct {
	*Deployment
	fb *feedback
}

// Extend implements Instance: attach new relay queues, then recompute
// which upstream hops each relay advertises to — route repair can change
// a surviving relay's predecessors without touching its queue.
func (i *FBInstance) Extend(m *mesh.Mesh) {
	i.Deployment.Extend(m)
	for _, r := range i.Relays {
		i.fb.refreshPreds(r, r.State.(*fbState))
	}
}

func init() {
	Register(Info{
		Name:    "feedback",
		Summary: "explicit per-hop rate feedback via injected control frames",
		Deploy: func(m *mesh.Mesh, _ Options) Instance {
			fb := &feedback{}
			return &FBInstance{Deployment: Deploy(m, fb, fbPeriod), fb: fb}
		},
	})
}
