package ctl

import (
	ez "ezflow/internal/ezflow"
	"ezflow/internal/mesh"
)

// EZFlow is the registry instance of the paper's controller: the BOE+CAA
// pair of internal/ezflow, deployed exactly as ezflow's Deploy always has
// so routing the mode through the registry is byte-identical to the
// pre-registry code path (the campaign golden tests pin this).
type EZFlow struct {
	dep *ez.Deployment
}

// Extend implements Instance by re-extending the BOE/CAA deployment over
// repair-created queues.
func (e *EZFlow) Extend(m *mesh.Mesh) { e.dep.Extend(m) }

// OverheadBytes implements Instance: EZ-Flow is message-free.
func (e *EZFlow) OverheadBytes() uint64 { return 0 }

// EZ exposes the deployment, so the scenario layer can report
// contention-window traces.
func (e *EZFlow) EZ() *ez.Deployment { return e.dep }

func init() {
	Register(Info{
		Name:    "ezflow",
		Summary: "the paper's BOE+CAA: passive buffer estimation, message-free (default)",
		Deploy: func(m *mesh.Mesh, opts Options) Instance {
			return &EZFlow{dep: ez.Deploy(m, opts.EZ)}
		},
	})
}
