package markov

import (
	"fmt"
	"math"
)

// Table4 returns the exact pattern distribution for a 4-hop walk in the
// given region with the given contention windows, using the closed-form
// expressions of the paper's Table 4: the oracle for the generic
// Patterns() construction.
func Table4(region string, cw []int) []Pattern {
	if len(cw) < 4 {
		panic("markov: Table4 needs cw0..cw3")
	}
	c := func(i int) float64 { return float64(cw[i]) }
	// sumProd(is...) = Σ_{l∈is} Π_{j∈is, j≠l} cw_j
	sumProd := func(is ...int) float64 {
		t := 0.0
		for _, l := range is {
			p := 1.0
			for _, j := range is {
				if j != l {
					p *= c(j)
				}
			}
			t += p
		}
		return t
	}
	mk := func(z []int, p float64) Pattern { return Pattern{Z: z, P: p} }
	switch region {
	case "A":
		return []Pattern{mk([]int{1, 0, 0, 0}, 1)}
	case "B":
		s := c(0) + c(1)
		return []Pattern{
			mk([]int{1, 0, 0, 0}, c(1)/s),
			mk([]int{0, 1, 0, 0}, c(0)/s),
		}
	case "C":
		return []Pattern{mk([]int{0, 0, 1, 0}, 1)}
	case "D":
		return []Pattern{mk([]int{1, 0, 0, 1}, 1)}
	case "E":
		s := sumProd(0, 1, 2)
		return []Pattern{
			mk([]int{0, 1, 0, 0}, c(0)*c(2)/s),
			mk([]int{0, 0, 1, 0}, 1-c(0)*c(2)/s),
		}
	case "F":
		// Contenders {0,1,3}. Rows of Table 4:
		// [0,0,0,1] = cw0·cw3/S + cw0·cw1/S · cw0/(cw0+cw1)
		// [1,0,0,1] = cw1·cw3/S + cw0·cw1/S · cw1/(cw0+cw1)
		s := sumProd(0, 1, 3)
		p3first := c(0) * c(1) / s // node 3 wins the first access
		return []Pattern{
			mk([]int{0, 0, 0, 1}, c(0)*c(3)/s+p3first*c(0)/(c(0)+c(1))),
			mk([]int{1, 0, 0, 1}, c(1)*c(3)/s+p3first*c(1)/(c(0)+c(1))),
		}
	case "G":
		// Contenders {0,2,3}. Rows of Table 4:
		// [0,0,1,0] = cw0·cw3/S + cw2·cw3/S · cw3/(cw2+cw3)
		// [1,0,0,1] = cw0·cw2/S + cw2·cw3/S · cw2/(cw2+cw3)
		s := sumProd(0, 2, 3)
		p0first := c(2) * c(3) / s // node 0 wins the first access
		return []Pattern{
			mk([]int{0, 0, 1, 0}, c(0)*c(3)/s+p0first*c(3)/(c(2)+c(3))),
			mk([]int{1, 0, 0, 1}, c(0)*c(2)/s+p0first*c(2)/(c(2)+c(3))),
		}
	case "H":
		// Contenders {0,1,2,3}. Rows of Table 4:
		// [0,0,1,0] = cw0cw1cw3/S + cw1cw2cw3/S · cw3/(cw2+cw3)
		// [0,0,0,1] = cw0cw2cw3/S + cw0cw1cw2/S · cw0/(cw0+cw1)
		// [1,0,0,1] = cw1cw2cw3/S · cw2/(cw2+cw3)
		//           + cw0cw1cw2/S · cw1/(cw0+cw1)
		s := sumProd(0, 1, 2, 3)
		p3first := c(0) * c(1) * c(2) / s // node 3 wins first
		p2first := c(0) * c(1) * c(3) / s // node 2 wins first
		p1first := c(0) * c(2) * c(3) / s // node 1 wins first
		p0first := c(1) * c(2) * c(3) / s // node 0 wins first
		return []Pattern{
			mk([]int{0, 0, 1, 0}, p2first+p0first*c(3)/(c(2)+c(3))),
			mk([]int{0, 0, 0, 1}, p1first+p3first*c(0)/(c(0)+c(1))),
			mk([]int{1, 0, 0, 1}, p0first*c(2)/(c(2)+c(3))+p3first*c(1)/(c(0)+c(1))),
		}
	}
	return nil
}

// CheckDrift evaluates the one-step expected drift of h over a grid of
// 4-hop states with the given contention windows and reports the maximum
// drift found in each region. A stabilising cw⃗ yields negative drift in
// every region that has all three relays' service active.
func CheckDrift(cw []int, probe int) map[string]float64 {
	out := make(map[string]float64)
	w := NewWalk(Config{K: 4, InitCW: 32, EZEnabled: false, MinCW: 16, MaxCW: 1 << 15, BMax: 20, BMin: 0.05}, func() float64 { return 0 })
	copy(w.CW, cw)
	for b1 := 0; b1 <= probe; b1++ {
		for b2 := 0; b2 <= probe; b2++ {
			for b3 := 0; b3 <= probe; b3++ {
				w.B[1], w.B[2], w.B[3] = b1, b2, b3
				r := w.Region()
				d := w.Drift()
				if cur, ok := out[r]; !ok || d > cur {
					out[r] = d
				}
			}
		}
	}
	return out
}

// ProbSum returns the total probability mass of a pattern set (should be 1).
func ProbSum(ps []Pattern) float64 {
	t := 0.0
	for _, p := range ps {
		t += p.P
	}
	return t
}

// Validate confirms a pattern set is a probability distribution.
func Validate(ps []Pattern) error {
	if s := ProbSum(ps); math.Abs(s-1) > 1e-9 {
		return fmt.Errorf("markov: pattern probabilities sum to %v", s)
	}
	for _, p := range ps {
		if p.P < -1e-12 {
			return fmt.Errorf("markov: negative probability %v", p.P)
		}
	}
	return nil
}

// Drift estimates E[h(b(n+1)) − h(b(n)) | b(n)] exactly from the pattern
// distribution of the current state: each pattern changes h by
// z_0 − z_{K-1} (packets enter at link 0, leave at link K-1).
func (w *Walk) Drift() float64 {
	d := 0.0
	for _, p := range w.Patterns() {
		d += p.P * float64(p.Z[0]-p.Z[w.K-1])
	}
	return d
}
