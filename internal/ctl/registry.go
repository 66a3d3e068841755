package ctl

import (
	"strings"

	ez "ezflow/internal/ezflow"
	"ezflow/internal/mesh"
	"ezflow/internal/registry"
)

// Options carries the controller tunables a run may set; ezflow.Config.Ctl
// is the one place a run sets them. Zero values select the documented
// defaults (FillDefaults); a scenario passes one Options to whichever
// controller it deploys, so sweeping controllers never changes anything
// but the controller. The other baselines' parameters are fixed
// constants in their controllers' files.
type Options struct {
	// EZ configures the ezflow controller (CAA thresholds, sniff loss).
	EZ ez.Options
	// PenaltyQ is the penalty controller's topology-dependent throttling
	// factor in (0, 1]; a value outside that range selects 1/128, the
	// hand-tuned value of [9].
	PenaltyQ float64
}

// DefaultOptions returns every tunable at its default.
func DefaultOptions() Options {
	var o Options
	FillDefaults(&o)
	return o
}

// FillDefaults replaces zero (or out-of-range) values with each family's
// defaults, leaving valid caller-set fields alone.
func FillDefaults(o *Options) {
	if o.EZ.CAA.Window == 0 {
		o.EZ.CAA = ez.DefaultCAAConfig()
	}
	if o.PenaltyQ <= 0 || o.PenaltyQ > 1 {
		o.PenaltyQ = defaultPenaltyQ
	}
}

// Instance is a controller installed over one scenario's mesh.
type Instance interface {
	// Extend (re)installs the controller over queues created since the
	// previous call — deployment calls it once up front, and Register's
	// deploy wrapper hooks it to every mesh.Repair round (mesh.OnRepair)
	// so repair-created queues come under control.
	Extend(m *mesh.Mesh)
	// OverheadBytes reports the control bytes the instance put (or
	// scheduled) on the air: piggybacked header bytes, injected control
	// frames and their ACKs. Message-free controllers report 0.
	OverheadBytes() uint64
}

// Info describes one registered controller.
type Info struct {
	// Name is the registry key ("ezflow", "backpressure", ...).
	Name string
	// Summary is the one-line description CLI usage strings embed.
	Summary string
	// Deploy installs the controller over a mesh. Register wraps it so
	// it always receives defaulted Options (FillDefaults): callers may
	// pass a zero Options. The wrapper also re-extends the instance after
	// every route-repair round of the mesh.
	Deploy func(m *mesh.Mesh, opts Options) Instance
}

// Controllers is the controller registry, keyed by Info.Name.
var Controllers = registry.New[Info]("controller", "", "")

// Register adds a controller to the registry. It panics on an empty name,
// a duplicate, or a nil Deploy — registration bugs must fail at init.
func Register(info Info) {
	deploy := info.Deploy
	if deploy == nil {
		panic("ctl: Register " + info.Name + " with nil Deploy")
	}
	info.Deploy = func(m *mesh.Mesh, opts Options) Instance {
		FillDefaults(&opts)
		inst := deploy(m, opts)
		m.OnRepair(func() { inst.Extend(m) })
		return inst
	}
	Controllers.Add(info.Name, info.Summary, info)
}

// IsNone reports whether name is one of the spellings that select no
// controller at all — the raw 802.11 baseline: "", "802.11", "80211",
// "off", "none", "plain". Every CLI flag, sweep axis and scenario field
// shares this predicate so the spellings can never drift apart.
func IsNone(name string) bool {
	switch strings.ToLower(name) {
	case "", "802.11", "80211", "off", "none", "plain":
		return true
	}
	return false
}
