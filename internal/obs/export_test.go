package obs

import "sort"

// Get reports the value of the named metric and whether it exists.
func (s *Snapshot) Get(name string) (float64, bool) {
	if s == nil {
		return 0, false
	}
	i := sort.Search(len(s.Metrics), func(i int) bool { return s.Metrics[i].Name >= name })
	if i < len(s.Metrics) && s.Metrics[i].Name == name {
		return s.Metrics[i].Value, true
	}
	return 0, false
}
