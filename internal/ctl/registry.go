package ctl

import (
	"strings"

	ez "ezflow/internal/ezflow"
	"ezflow/internal/mesh"
	"ezflow/internal/registry"
)

// Options carries every controller family's tunables. Zero values select
// the documented defaults (FillDefaults); a scenario passes one Options to
// whichever controller it deploys, so sweeping controllers never changes
// anything but the controller.
type Options struct {
	// EZ configures the ezflow controller (CAA thresholds, sniff loss).
	EZ ez.Options
	// Penalty configures the static penalty baseline of [9].
	Penalty PenaltyConfig
	// Static configures the staticcap controller.
	Static StaticConfig
	// Backpressure configures the queue-differential controller.
	Backpressure BackpressureConfig
	// Feedback configures the explicit rate-feedback controller.
	Feedback FeedbackConfig
}

// PenaltyConfig parameterises the penalty controller: sources are
// throttled to cwRelay/Q while relays use RelayCW.
type PenaltyConfig struct {
	// Q is the topology-dependent throttling factor in (0, 1].
	Q float64
	// RelayCW is the relay contention window.
	RelayCW int
}

// DefaultOptions returns every family's defaults.
func DefaultOptions() Options {
	var o Options
	FillDefaults(&o)
	return o
}

// FillDefaults replaces zero values with each family's defaults, leaving
// caller-set fields alone.
func FillDefaults(o *Options) {
	if o.EZ.CAA.Window == 0 {
		o.EZ.CAA = ez.DefaultCAAConfig()
	}
	if o.Penalty.Q <= 0 || o.Penalty.Q > 1 {
		o.Penalty.Q = 1.0 / 128
	}
	if o.Penalty.RelayCW <= 0 {
		o.Penalty.RelayCW = 16
	}
	o.Static.fillDefaults()
	o.Backpressure.fillDefaults()
	o.Feedback.fillDefaults()
}

// Instance is a controller installed over one scenario's mesh.
type Instance interface {
	// Extend (re)installs the controller over queues created since the
	// previous call — deployment calls it once up front, and the dynamics
	// layer calls it again after every BFS route repair so repair-created
	// queues come under control.
	Extend(m *mesh.Mesh)
	// OverheadBytes reports the control bytes the instance put (or
	// scheduled) on the air: piggybacked header bytes, injected control
	// frames and their ACKs. Message-free controllers report 0.
	OverheadBytes() uint64
}

// EZInstance is implemented by the ezflow instance so the scenario layer
// can keep exporting contention-window traces.
type EZInstance interface {
	// EZ returns the underlying BOE/CAA deployment.
	EZ() *ez.Deployment
}

// Info describes one registered controller.
type Info struct {
	// Name is the registry key ("ezflow", "backpressure", ...).
	Name string
	// Summary is the one-line description CLI usage strings embed.
	Summary string
	// Deploy installs the controller over a mesh. Implementations fill
	// their own Options defaults, so callers may pass a zero Options.
	Deploy func(m *mesh.Mesh, opts Options) Instance
}

// Controllers is the controller registry, keyed by Info.Name.
var Controllers = registry.New[Info]("controller", "", "")

// Register adds a controller to the registry. It panics on an empty name,
// a duplicate, or a nil Deploy — registration bugs must fail at init.
func Register(info Info) {
	if info.Deploy == nil {
		panic("ctl: Register " + info.Name + " with nil Deploy")
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
