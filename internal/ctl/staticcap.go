package ctl

import "ezflow/internal/mesh"

// StaticConfig parameterises the staticcap controller.
type StaticConfig struct {
	// Window is the fixed admission window applied to every relay queue
	// (default DefaultStaticWindow).
	Window int
}

// DefaultStaticWindow is the fixed per-hop window of the staticcap
// controller: 2^7, between the 802.11 default (2^5) and the stable EZ-Flow
// relay windows of §5.2 (2^11 at the gateway hop), so it visibly throttles
// without starving short chains.
const DefaultStaticWindow = 1 << 7

func (c *StaticConfig) fillDefaults() {
	if c.Window <= 0 {
		c.Window = DefaultStaticWindow
	}
}

// staticCap is the degenerate control: one fixed admission window on every
// relay queue, set at attach time and never adapted. It is the hop-by-hop
// analogue of an offline-tuned rate limit — what every adaptive scheme in
// the head-to-head must beat to justify its machinery.
type staticCap struct {
	NopHooks
	cfg StaticConfig
}

// Name implements Controller.
func (s *staticCap) Name() string { return "staticcap" }

// Attach implements Controller: set the window once.
func (s *staticCap) Attach(r *Relay) { r.Caps.SetWindow(s.cfg.Window) }

func init() {
	Register(Info{
		Name:    "staticcap",
		Summary: "fixed per-hop admission window, no adaptation (degenerate control)",
		Deploy: func(m *mesh.Mesh, opts Options) Instance {
			return Deploy(m, &staticCap{cfg: opts.Static}, 0)
		},
	})
}
