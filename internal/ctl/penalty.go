package ctl

import "ezflow/internal/mesh"

const (
	// defaultPenaltyQ is the hand-tuned throttling factor of [9], used
	// when Options.PenaltyQ lies outside (0, 1].
	defaultPenaltyQ = 1.0 / 128
	// penaltyRelayCW is the relay contention window of [9].
	penaltyRelayCW = 16
)

// penalty is the static penalty scheme of Aziz et al. [9]: every flow
// source transmits with window penaltyRelayCW/q and every relay with
// penaltyRelayCW, a topology-dependent throttle chosen offline. It is the
// scheme EZ-Flow rediscovers distributively (§5.2's stable regime matches
// q = 2^4/2^11); with q = 1 it degenerates to plain 802.11 at the relay
// window.
type penalty struct {
	q float64
}

// Extend implements Instance by (re)applying the source and relay
// windows, which also covers queues created by route repair.
func (p *penalty) Extend(m *mesh.Mesh) {
	cwSource := int(penaltyRelayCW / p.q)
	for _, f := range m.Flows() {
		route := m.Route(f)
		for _, q := range m.Node(route[0]).Queues() {
			q.SetCWmin(cwSource)
		}
		for i := 1; i < len(route)-1; i++ {
			for _, q := range m.Node(route[i]).Queues() {
				q.SetCWmin(penaltyRelayCW)
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
			p := &penalty{q: opts.PenaltyQ}
			p.Extend(m)
			return p
		},
	})
}
