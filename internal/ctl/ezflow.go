package ctl

import (
	ez "ezflow/internal/ezflow"
	"ezflow/internal/mesh"
	"ezflow/internal/pkt"
)

// ezFlow is the paper's controller on the relay hooks: each relay's State
// is an *ez.Controller, the BOE/CAA pair watching its successor. It uses
// only what the paper allows — the node's own transmissions, frames
// overheard in monitor mode and the queue's CWmin — and is message-free.
type ezFlow struct {
	NopHooks
	opts ez.Options
}

// Name implements Controller.
func (e *ezFlow) Name() string { return "ezflow" }

// Attach implements Controller: build the relay's BOE/CAA pair.
func (e *ezFlow) Attach(r *Relay) {
	r.State = ez.New(r.Successor, r.Caps.Queue(), r.Eng.Now, e.opts.CAA)
}

// OnTransmit records the identifier of each packet the node sends toward
// the successor, once: retries carry an identifier already recorded.
func (e *ezFlow) OnTransmit(r *Relay, f *pkt.Frame) {
	if f.Retry || f.TxDst != r.Successor || f.Payload == nil {
		return
	}
	r.State.(*ez.Controller).BOE.RecordSent(f.Payload.Checksum16())
}

// OnOverhear feeds the BOE every overheard frame that survives the
// configured sniff loss. Zero allocations.
func (e *ezFlow) OnOverhear(r *Relay, f *pkt.Frame, _ pkt.CaptureInfo) {
	if e.opts.SniffLoss > 0 && r.Eng.Rand().Float64() < e.opts.SniffLoss {
		return
	}
	r.State.(*ez.Controller).BOE.OnSniff(f)
}

func init() {
	Register(Info{
		Name:    "ezflow",
		Summary: "the paper's BOE+CAA: passive buffer estimation, message-free (default)",
		Deploy: func(m *mesh.Mesh, opts Options) Instance {
			return Deploy(m, &ezFlow{opts: opts.EZ}, 0)
		},
	})
}
