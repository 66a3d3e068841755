// Package markov implements the discrete-time model of §6 of the paper:
// a K-hop chain whose state is the relay buffer vector b⃗ and the
// contention-window vector cw⃗, evolving as a random walk on the positive
// orthant of Z^(K-1). Each time slot one transmission pattern z⃗ occurs,
// drawn according to the current region (which buffers are empty) and the
// contention windows; buffers then update as
// b_i(n+1) = b_i(n) + z_{i-1}(n) - z_i(n), and EZ-Flow updates cw⃗ through
// the threshold function f of Eq. (2).
//
// For K = 4 the transmission-pattern distribution is the paper's Table 4
// over the eight regions A–H of Z³; for general K the same construction is
// generated programmatically from the 2-hop interference model: a node may
// transmit when its buffer is non-empty, it wins the contention among the
// non-silenced contenders with probability proportional to the product of
// the other contenders' windows (i.e. probability ∝ 1/cw_i), and
// transmissions whose 2-hop neighbourhoods do not overlap proceed in
// parallel; hidden-terminal collisions corrupt overlapping receptions.
package markov

import (
	"fmt"
	"sort"
)

// Walk is the random-walk model of a K-hop chain. Node 0 is the saturated
// source (b0 = ∞), node K the sink (bK = 0 always); relay buffers are
// b[1..K-1].
type Walk struct {
	K  int   // number of hops
	B  []int // buffer occupancy; index 0 unused conceptually (source ∞)
	CW []int // contention windows of nodes 0..K-1

	// EZ-Flow dynamics parameters (Eq. 2).
	BMin, BMax   float64
	MinCW, MaxCW int
	EZEnabled    bool

	rng func() float64

	// Steps counts slots simulated.
	Steps uint64
}

// Config holds the walk's parameters.
type Config struct {
	K         int
	InitCW    int
	BMin      float64
	BMax      float64
	MinCW     int
	MaxCW     int
	EZEnabled bool
}

// DefaultConfig mirrors the paper's analysis setting for a 4-hop chain.
func DefaultConfig() Config {
	return Config{
		K:         4,
		InitCW:    1 << 5,
		BMin:      0.05, // any value < 1 makes "buffer empty" the signal
		BMax:      20,
		MinCW:     1 << 4,
		MaxCW:     1 << 15,
		EZEnabled: true,
	}
}

// NewWalk builds a walk. rng must return uniform floats in [0,1).
func NewWalk(cfg Config, rng func() float64) *Walk {
	if cfg.K < 2 {
		panic("markov: need at least 2 hops")
	}
	if cfg.InitCW <= 0 {
		cfg.InitCW = 32
	}
	w := &Walk{
		K:    cfg.K,
		B:    make([]int, cfg.K), // B[1..K-1] are relay buffers; B[0] ignored (∞)
		CW:   make([]int, cfg.K),
		BMin: cfg.BMin, BMax: cfg.BMax,
		MinCW: cfg.MinCW, MaxCW: cfg.MaxCW,
		EZEnabled: cfg.EZEnabled,
		rng:       rng,
	}
	for i := range w.CW {
		w.CW[i] = cfg.InitCW
	}
	return w
}

// Region classifies the buffer state of a 4-hop walk into the regions A–H
// of Figure 12: three booleans (b1>0, b2>0, b3>0) in the order
// A=(0,0,0), B=(1,0,0), C=(0,1,0), D=(0,0,1),
// E=(1,1,0), F=(1,0,1), G=(0,1,1), H=(1,1,1).
func (w *Walk) Region() string {
	if w.K != 4 {
		return ""
	}
	b1, b2, b3 := w.B[1] > 0, w.B[2] > 0, w.B[3] > 0
	switch {
	case !b1 && !b2 && !b3:
		return "A"
	case b1 && !b2 && !b3:
		return "B"
	case !b1 && b2 && !b3:
		return "C"
	case !b1 && !b2 && b3:
		return "D"
	case b1 && b2 && !b3:
		return "E"
	case b1 && !b2 && b3:
		return "F"
	case !b1 && b2 && b3:
		return "G"
	default:
		return "H"
	}
}

// Pattern is a link-activation vector z⃗ with its probability.
type Pattern struct {
	Z []int
	P float64
}

// hasBacklog reports whether node i has a packet to send (source always).
func (w *Walk) hasBacklog(i int) bool {
	if i == 0 {
		return true
	}
	return w.B[i] > 0
}

// Patterns enumerates the possible transmission patterns of the current
// state with their probabilities. The construction reproduces Table 4
// exactly for K=4 (verified against the closed forms in tests) and
// generalises it for other K. The rules, decoded from Table 4 and from the
// model of [9] the paper builds on, are:
//
//  1. Contenders = nodes with backlog (the source always has backlog).
//  2. Backoff race: among the not-yet-silenced contenders, node i is the
//     next to start transmitting with probability proportional to
//     Π_{j≠i} cw_j (i.e. ∝ 1/cw_i) — the cw-product formula visible in
//     every row of Table 4.
//  3. Carrier sense reaches one hop on the chain: when i starts
//     transmitting, contenders adjacent to i (|Δ| = 1) freeze; contenders
//     two or more hops away are hidden from it and keep contending, so
//     every maximal set of mutually-hidden winners transmits in the same
//     slot.
//  4. Success (z_i = 1): the transmission on link i (i → i+1) is received
//     iff no other simultaneous transmitter is within one hop of the
//     receiver i+1. On a chain the only such transmitter that can occur is
//     i+2 (i+1 is frozen by i itself), so z_i = 1 iff i transmits and i+2
//     does not — the hidden-terminal collision of the paper's Figure 12
//     world.
func (w *Walk) Patterns() []Pattern {
	var contenders []int
	for i := 0; i < w.K; i++ {
		if w.hasBacklog(i) {
			contenders = append(contenders, i)
		}
	}
	out := make(map[string]*Pattern)
	emit := func(selected []int, p float64) {
		tx := make(map[int]bool, len(selected))
		for _, s := range selected {
			tx[s] = true
		}
		z := make([]int, w.K)
		for _, s := range selected {
			if !tx[s+2] {
				z[s] = 1
			}
		}
		key := fmt.Sprint(z)
		if e, ok := out[key]; ok {
			e.P += p
		} else {
			out[key] = &Pattern{Z: z, P: p}
		}
	}
	var rec func(selected []int, remaining []int, p float64)
	rec = func(selected, remaining []int, p float64) {
		if len(remaining) == 0 {
			emit(selected, p)
			return
		}
		// Probability each remaining contender wins the next access:
		// ∝ Π_{j≠i} cw_j over the remaining set.
		total := 0.0
		weights := make([]float64, len(remaining))
		for idx, i := range remaining {
			prod := 1.0
			for _, j := range remaining {
				if j != i {
					prod *= float64(w.CW[j])
				}
			}
			weights[idx] = prod
			total += prod
		}
		for idx, i := range remaining {
			pi := p * weights[idx] / total
			// i transmits; its one-hop neighbours freeze; everyone
			// else keeps contending (hidden from i).
			var rest []int
			for _, j := range remaining {
				if j == i || j == i-1 || j == i+1 {
					continue
				}
				rest = append(rest, j)
			}
			rec(append(append([]int(nil), selected...), i), rest, pi)
		}
	}
	rec(nil, contenders, 1)

	pats := make([]Pattern, 0, len(out))
	for _, p := range out {
		pats = append(pats, *p)
	}
	sortPatterns(pats)
	return pats
}

func sortPatterns(ps []Pattern) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && less(ps[j].Z, ps[j-1].Z); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

func less(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] > b[i] // [1,0,..] sorts before [0,1,..]
		}
	}
	return false
}

// Step advances the walk one slot: draw a pattern, apply the buffer
// recursion of Eq. (3) and, if enabled, the EZ-Flow update of Eq. (2).
func (w *Walk) Step() {
	pats := w.Patterns()
	r := w.rng()
	var z []int
	acc := 0.0
	for _, p := range pats {
		acc += p.P
		if r < acc {
			z = p.Z
			break
		}
	}
	if z == nil && len(pats) > 0 {
		z = pats[len(pats)-1].Z
	}
	// Buffers: b_i += z_{i-1} - z_i for relays 1..K-1.
	for i := w.K - 1; i >= 1; i-- {
		w.B[i] += z[i-1] - z[i]
		if w.B[i] < 0 {
			w.B[i] = 0 // cannot happen if patterns respect backlog
		}
	}
	if w.EZEnabled {
		for i := 0; i < w.K-1; i++ {
			w.CW[i] = w.updateCW(w.CW[i], float64(w.B[i+1]))
		}
	}
	w.Steps++
}

// updateCW is f(cw_i, b_{i+1}) of Eq. (2).
func (w *Walk) updateCW(cw int, succ float64) int {
	switch {
	case succ > w.BMax:
		if next := cw * 2; next <= w.MaxCW {
			return next
		}
		return w.MaxCW
	case succ < w.BMin:
		if next := cw / 2; next >= w.MinCW {
			return next
		}
		return w.MinCW
	default:
		return cw
	}
}

// TotalBacklog is the Lyapunov function h(b⃗) = Σ_{i=1}^{K-1} b_i.
func (w *Walk) TotalBacklog() int {
	t := 0
	for i := 1; i < w.K; i++ {
		t += w.B[i]
	}
	return t
}

// RunStats summarises a trajectory.
type RunStats struct {
	Steps       uint64
	MaxBacklog  int
	MeanBacklog float64
	FinalCW     []int
	// RegionVisits counts visits per region (4-hop only).
	RegionVisits map[string]uint64
}

// Run advances n steps and returns trajectory statistics.
func (w *Walk) Run(n int) RunStats {
	st := RunStats{RegionVisits: make(map[string]uint64)}
	var sum float64
	for i := 0; i < n; i++ {
		if w.K == 4 {
			st.RegionVisits[w.Region()]++
		}
		w.Step()
		h := w.TotalBacklog()
		sum += float64(h)
		if h > st.MaxBacklog {
			st.MaxBacklog = h
		}
	}
	st.Steps = uint64(n)
	st.MeanBacklog = sum / float64(n)
	st.FinalCW = append([]int(nil), w.CW...)
	return st
}

// FosterK is the number of steps k(b⃗) the paper's proof of Theorem 1 uses
// per region to establish the negative Lyapunov drift of condition (6):
// one step suffices in F and H, while region B (only the first relay
// backlogged, served almost never by a high-cw source) needs 25.
var FosterK = map[string]int{
	"B": 25, "C": 4, "D": 2, "E": 2, "F": 1, "G": 3, "H": 1,
}

// fosterState is a representative relay backlog (b1, b2, b3) of each
// region of FosterK.
var fosterState = map[string][3]int{
	"B": {2, 0, 0}, "C": {0, 2, 0}, "D": {0, 0, 2}, "E": {2, 2, 0},
	"F": {2, 0, 2}, "G": {0, 2, 2}, "H": {2, 2, 2},
}

// FosterRegions lists the regions of FosterK in sorted order.
func FosterRegions() []string {
	regions := make([]string, 0, len(FosterK))
	for r := range FosterK {
		regions = append(regions, r)
	}
	sort.Strings(regions)
	return regions
}

// FosterDrift checks Foster's condition (6) in one region of a 4-hop
// walk: the FosterK[region]-step drift (see DriftK, reps trajectories
// drawn from rng) from the region's representative backlog, under fixed
// windows at the stabilising vector [2^11, 16, 16, 16] that EZ-Flow
// discovers.
func FosterDrift(region string, reps int, rng func() float64) float64 {
	w := NewWalk(Config{K: 4, InitCW: 32, BMin: 0.05, BMax: 20, MinCW: 16, MaxCW: 1 << 15}, rng)
	copy(w.CW, []int{1 << 11, 16, 16, 16})
	st := fosterState[region]
	w.B[1], w.B[2], w.B[3] = st[0], st[1], st[2]
	return w.DriftK(FosterK[region], reps, rng)
}

// DriftK estimates the k-step expected Lyapunov drift
// E[h(b(n+k)) − h(b(n)) | b(n)] by Monte Carlo with reps independent
// trajectories from the walk's current state (contention windows included).
// The walk itself is not advanced.
func (w *Walk) DriftK(k, reps int, rng func() float64) float64 {
	h0 := w.TotalBacklog()
	var sum float64
	for r := 0; r < reps; r++ {
		c := w.clone(rng)
		for s := 0; s < k; s++ {
			c.Step()
		}
		sum += float64(c.TotalBacklog() - h0)
	}
	return sum / float64(reps)
}

// clone copies the walk's state, substituting the given random source.
func (w *Walk) clone(rng func() float64) *Walk {
	c := *w
	c.B = append([]int(nil), w.B...)
	c.CW = append([]int(nil), w.CW...)
	c.rng = rng
	return &c
}

// Describe prints a human-readable summary of the pattern distribution.
func Describe(ps []Pattern) string {
	s := ""
	for _, p := range ps {
		s += fmt.Sprintf("  z=%v p=%.4f\n", p.Z, p.P)
	}
	return s
}
