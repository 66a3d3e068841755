// Snapshots: the immutable, deterministically ordered export format of a
// Registry. A snapshot is taken on the simulation goroutine (so probes
// read a consistent world) and is never mutated afterwards, which is what
// lets the live server hand it to HTTP readers through an atomic pointer.
package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"

	"ezflow/internal/sim"
)

// Metric is one named value of a snapshot.
type Metric struct {
	// Name is the metric's registered name (for CounterVec members,
	// "<prefix>.<label>"; for histograms, the derived _count/_sum/
	// _le_<bound> series).
	Name string `json:"name"`
	// Value is the metric's value at snapshot time. Counters are exact up
	// to 2^53; simulation runs stay far below that.
	Value float64 `json:"value"`
}

// Snapshot is the state of every registered metric at one instant of
// simulation time. Metrics are sorted by name, so two snapshots of
// identical state marshal byte-identically regardless of registration
// order or worker interleaving — the determinism contract campaign-level
// tests pin.
type Snapshot struct {
	// AtSec is the simulation time of the snapshot in seconds.
	AtSec float64 `json:"at_sec"`
	// Metrics lists every metric, ascending by name.
	Metrics []Metric `json:"metrics"`
}

// Snapshot captures every registered metric at simulation time at.
// Safe on a nil registry (returns nil).
func (r *Registry) Snapshot(at sim.Time) *Snapshot {
	if r == nil {
		return nil
	}
	s := &Snapshot{AtSec: at.Seconds()}
	for _, cv := range r.vecs {
		for i, l := range cv.labels {
			s.Metrics = append(s.Metrics, Metric{Name: cv.prefix + "." + l, Value: float64(cv.v[i])})
		}
	}
	for _, g := range r.gauges {
		s.Metrics = append(s.Metrics, Metric{Name: g.name, Value: g.probe()})
	}
	for _, h := range r.hists {
		s.Metrics = append(s.Metrics, Metric{Name: h.name + "_count", Value: float64(h.n)})
		s.Metrics = append(s.Metrics, Metric{Name: h.name + "_sum", Value: h.sum})
		cum := uint64(0)
		for i, b := range h.bounds {
			cum += h.counts[i]
			s.Metrics = append(s.Metrics, Metric{
				Name:  h.name + "_le_" + strconv.FormatFloat(b, 'g', -1, 64),
				Value: float64(cum),
			})
		}
	}
	sort.Slice(s.Metrics, func(i, j int) bool { return s.Metrics[i].Name < s.Metrics[j].Name })
	return s
}

// WriteJSON marshals the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
