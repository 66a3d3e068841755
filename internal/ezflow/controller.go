package ezflow

import (
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// Controller is one EZ-Flow instance: the BOE/CAA pair a node runs for one
// of its successors. It touches the MAC through nothing but its CWmin
// knob; the caller feeds it the identifiers the node sends toward the
// successor (BOE.RecordSent, on first attempts only: the paper's
// two-interface deployment resolves the sniffer constraint of §4.1 the
// same way) and the frames it overhears in monitor mode (BOE.OnSniff).
// internal/ctl's "ezflow" controller does both from its relay hooks.
type Controller struct {
	BOE *BOE
	CAA *CAA

	// CWTrace records (time, cw) at creation and after every change, for
	// Figs. 8 and 11.
	CWTrace []CWPoint
}

// CWPoint is one contention-window trace sample.
type CWPoint struct {
	At sim.Time
	CW int
}

// Options configures EZ-Flow.
type Options struct {
	CAA CAAConfig
	// SniffLoss drops each overheard frame at the BOE with this
	// probability (0 = perfect monitor mode within radio constraints).
	SniffLoss float64
}

// New builds the controller watching successor succ and driving cw, the
// controlled queue's CWmin. now supplies virtual time.
func New(succ pkt.NodeID, cw CWSetter, now func() sim.Time, cfg CAAConfig) *Controller {
	c := &Controller{CAA: NewCAA(cfg, cw, now)}
	c.CAA.OnDecision = func(d Decision) {
		if d.Changed {
			c.CWTrace = append(c.CWTrace, CWPoint{d.At, d.CW})
		}
	}
	c.BOE = NewBOE(succ, now, c.CAA.OnSample)
	c.CWTrace = append(c.CWTrace, CWPoint{now(), cw.CWmin()})
	return c
}
