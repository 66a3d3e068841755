package ctl

import "ezflow/internal/mesh"

// DefaultStaticWindow is the fixed per-hop window of the staticcap
// controller: 2^7, between the 802.11 default (2^5) and the stable EZ-Flow
// relay windows of §5.2 (2^11 at the gateway hop), so it visibly throttles
// without starving short chains.
const DefaultStaticWindow = 1 << 7

// staticCap is the degenerate control: one fixed admission window on every
// relay queue, set at attach time and never adapted. It is the hop-by-hop
// analogue of an offline-tuned rate limit — what every adaptive scheme in
// the head-to-head must beat to justify its machinery.
type staticCap struct {
	NopHooks
}

// Name implements Controller.
func (s *staticCap) Name() string { return "staticcap" }

// Attach implements Controller: set the window once.
func (s *staticCap) Attach(r *Relay) { r.Caps.SetWindow(DefaultStaticWindow) }

func init() {
	Register(Info{
		Name:    "staticcap",
		Summary: "fixed per-hop admission window, no adaptation (degenerate control)",
		Deploy: func(m *mesh.Mesh, _ Options) Instance {
			return Deploy(m, &staticCap{}, 0)
		},
	})
}
