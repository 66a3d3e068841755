package ctl

import "ezflow/internal/mesh"

// PenaltyConfig parameterises the penalty controller: sources are
// throttled to RelayCW/Q while relays use RelayCW.
type PenaltyConfig struct {
	// Q is the topology-dependent throttling factor in (0, 1]; a value
	// outside that range selects 1/128, the hand-tuned value of [9].
	Q float64
	// RelayCW is the relay contention window (default 16).
	RelayCW int
}

func (c *PenaltyConfig) fillDefaults() {
	if c.Q <= 0 || c.Q > 1 {
		c.Q = 1.0 / 128
	}
	if c.RelayCW <= 0 {
		c.RelayCW = 16
	}
}

// penalty is the static penalty scheme of Aziz et al. [9]: every flow
// source transmits with window RelayCW/Q and every relay with RelayCW, a
// topology-dependent throttle chosen offline. It is the scheme EZ-Flow
// rediscovers distributively (§5.2's stable regime matches q = 2^4/2^11);
// with Q = 1 it degenerates to plain 802.11 at the relay window.
type penalty struct {
	cfg PenaltyConfig
}

// Extend implements Instance by (re)applying the source and relay
// windows, which also covers queues created by route repair.
func (p *penalty) Extend(m *mesh.Mesh) {
	cwSource := int(float64(p.cfg.RelayCW) / p.cfg.Q)
	for _, f := range m.Flows() {
		route := m.Route(f)
		for _, q := range m.Node(route[0]).Queues() {
			q.SetCWmin(cwSource)
		}
		for i := 1; i < len(route)-1; i++ {
			for _, q := range m.Node(route[i]).Queues() {
				q.SetCWmin(p.cfg.RelayCW)
			}
		}
	}
}

// OverheadBytes implements Instance: the penalty scheme is message-free.
func (p *penalty) OverheadBytes() uint64 { return 0 }

func init() {
	Register(Info{
		Name:    "penalty",
		Summary: "static penalty scheme of [9]: offline topology-tuned source throttling",
		Deploy: func(m *mesh.Mesh, opts Options) Instance {
			p := &penalty{cfg: opts.Penalty}
			p.Extend(m)
			return p
		},
	})
}
