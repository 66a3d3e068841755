// The metric registry: dense-slot counter families, probe-backed gauges
// and fixed-bucket histograms. Registration allocates; the increment paths
// do not, and every increment method is safe on a nil receiver so disabled
// observability costs one predictable branch.
package obs

import (
	"fmt"
	"sort"
)

// CounterVec is a dense-slot family of monotonically increasing counters
// sharing one name prefix — the pkt.NodeIndex pattern applied to metrics.
// The caller addresses members by a small integer slot (a PHY station
// slot, a node index), so the hot-path increment is a bounds-checked array
// write: no map lookup, no hashing, no allocation. Inc on a nil
// *CounterVec is a no-op, so hot paths hold a possibly-nil pointer and
// call unconditionally (or guard with != nil where the call sits inside a
// loop worth saving the call for). Snapshot emits one metric per slot,
// named "<prefix>.<label>".
type CounterVec struct {
	prefix string
	labels []string
	v      []uint64
}

// Inc increments slot's counter by one. No-op on a nil receiver.
func (cv *CounterVec) Inc(slot int) {
	if cv != nil {
		cv.v[slot]++
	}
}

// gauge is a read-only probe evaluated at snapshot time on the simulation
// goroutine. Gauges are how the registry observes state owned by other
// layers (heap depth, pool stats, queue depths) without those layers
// importing obs.
type gauge struct {
	name  string
	probe func() float64
}

// Histogram accumulates observations into fixed buckets chosen at
// registration. Observe is allocation-free; a nil receiver observes
// nothing. Bounds are inclusive upper edges in ascending order; one
// overflow bucket catches everything beyond the last bound.
type Histogram struct {
	name   string
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the overflow bucket
	sum    float64
	n      uint64
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(x float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && x > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += x
	h.n++
}

// Registry holds one scenario's metrics. It is not safe for concurrent
// use: registration and every increment happen on the simulation
// goroutine, exactly like the rest of a scenario's state. Live servers
// never touch a Registry — they read immutable Snapshots published
// through an atomic pointer.
type Registry struct {
	vecs   []*CounterVec
	gauges []gauge
	hists  []*Histogram
	names  map[string]bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// reserve claims a metric name, panicking on duplicates: two layers
// silently sharing a name would make the snapshot lie about both.
func (r *Registry) reserve(name string) {
	if r.names[name] {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	r.names[name] = true
}

// CounterVec registers a dense-slot counter family: one counter per
// label, addressed by the label's index. Snapshot names each member
// "<prefix>.<label>". A nil registry returns nil, whose Inc is a no-op —
// callers can thread the result into hot paths without caring whether
// metrics are enabled.
func (r *Registry) CounterVec(prefix string, labels []string) *CounterVec {
	if r == nil {
		return nil
	}
	for _, l := range labels {
		r.reserve(prefix + "." + l)
	}
	cv := &CounterVec{
		prefix: prefix,
		labels: append([]string(nil), labels...),
		v:      make([]uint64, len(labels)),
	}
	r.vecs = append(r.vecs, cv)
	return cv
}

// Gauge registers a probe evaluated at snapshot time. The probe runs on
// the simulation goroutine and must only read state. No-op on a nil
// registry.
func (r *Registry) Gauge(name string, probe func() float64) {
	if r == nil {
		return
	}
	r.reserve(name)
	r.gauges = append(r.gauges, gauge{name: name, probe: probe})
}

// Histogram registers a fixed-bucket histogram with the given ascending
// inclusive upper bounds. A nil registry returns nil (Observe no-ops).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
	}
	r.reserve(name)
	h := &Histogram{
		name:   name,
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	r.hists = append(r.hists, h)
	return h
}
