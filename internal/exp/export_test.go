package exp

import root "ezflow"

// Bottleneck reports the index of the weakest measured link.
func (t *Table1Result) Bottleneck() int {
	best, idx := -1.0, -1
	for i, v := range t.MeanKbps {
		if idx < 0 || v < best {
			best, idx = v, i
		}
	}
	return idx
}

// Get returns the run for a mode, or nil.
func (r *StabilityResult) Get(m root.Mode) *StabilityRun {
	for _, run := range r.Runs {
		if run.Mode == m {
			return run
		}
	}
	return nil
}
