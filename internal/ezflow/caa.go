package ezflow

import (
	"math"

	"ezflow/internal/sim"
)

// Default CAA parameters — the values the paper's simulations use
// (§5.1: bmin = 0.05, bmax = 20, maxcw = 2^15) with mincw = 2^4, the value
// relay nodes converge to in the stable regime.
const (
	DefaultBMin   = 0.05
	DefaultBMax   = 20
	DefaultMinCW  = 1 << 4
	DefaultMaxCW  = 1 << 15
	DefaultWindow = 50 // samples averaged before each decision
)

// CAAConfig parameterises the Channel Access Adaptation module.
type CAAConfig struct {
	BMin   float64 // lower buffer threshold (underutilisation)
	BMax   float64 // upper buffer threshold (overutilisation)
	MinCW  int     // smallest contention window (power of two)
	MaxCW  int     // largest contention window (power of two)
	Window int     // number of BOE samples per decision
}

// DefaultCAAConfig returns the paper's parameters.
func DefaultCAAConfig() CAAConfig {
	return CAAConfig{
		BMin:   DefaultBMin,
		BMax:   DefaultBMax,
		MinCW:  DefaultMinCW,
		MaxCW:  DefaultMaxCW,
		Window: DefaultWindow,
	}
}

// CWSetter is the single control surface the CAA drives: the MAC queue's
// minimum contention window (mac.Queue satisfies it).
type CWSetter interface {
	CWmin() int
	SetCWmin(int)
}

// Decision records one CAA decision, for traces and tests.
type Decision struct {
	At      sim.Time
	Avg     float64 // averaged b_{k+1} over the window
	CW      int     // cw after the decision
	Changed bool
}

// CAA implements the Channel Access Adaptation policy of Algorithm 1:
// every Window samples it averages the BOE estimates and
//
//   - if avg > BMax it counts an overutilisation signal; after
//     countup >= log2(cw) consecutive signals it doubles cw;
//   - if avg < BMin it counts an underutilisation signal; after
//     countdown >= 15 - log2(cw) consecutive signals it halves cw;
//   - otherwise both counters reset and cw is kept.
//
// Tying the reaction thresholds to log2(cw) gives the inter-flow fairness
// property of §3.3: nodes with a large cw react faster to underutilisation
// and slower to overutilisation than nodes with a small cw.
type CAA struct {
	cfg CAAConfig
	cw  CWSetter

	samples   []int
	countUp   int
	countDown int

	// OnDecision, when set, observes every decision.
	OnDecision func(Decision)
	now        func() sim.Time
}

// NewCAA creates a CAA driving the given queue knob. The queue's current
// CWmin is clamped into [MinCW, MaxCW] at creation.
func NewCAA(cfg CAAConfig, cw CWSetter, now func() sim.Time) *CAA {
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.MinCW <= 0 {
		cfg.MinCW = DefaultMinCW
	}
	if cfg.MaxCW < cfg.MinCW {
		cfg.MaxCW = DefaultMaxCW
	}
	c := &CAA{cfg: cfg, cw: cw, now: now}
	v := cw.CWmin()
	if v < cfg.MinCW {
		cw.SetCWmin(cfg.MinCW)
	} else if v > cfg.MaxCW {
		cw.SetCWmin(cfg.MaxCW)
	}
	return c
}

// OnSample feeds one BOE estimate; every Window samples a decision fires.
func (c *CAA) OnSample(s Sample) {
	c.samples = append(c.samples, s.Value)
	if len(c.samples) < c.cfg.Window {
		return
	}
	sum := 0
	for _, v := range c.samples {
		sum += v
	}
	avg := float64(sum) / float64(len(c.samples))
	c.samples = c.samples[:0]
	c.decide(avg)
}

// log2cw returns log2 of the current contention window, the quantity the
// hysteresis thresholds are tied to.
func (c *CAA) log2cw() int {
	return int(math.Round(math.Log2(float64(c.cw.CWmin()))))
}

func (c *CAA) decide(avg float64) {
	cw := c.cw.CWmin()
	changed := false
	switch {
	case avg > c.cfg.BMax:
		c.countDown = 0
		c.countUp++
		if c.countUp >= c.log2cw() {
			next := cw * 2
			if next > c.cfg.MaxCW {
				next = c.cfg.MaxCW
			}
			if next != cw {
				c.cw.SetCWmin(next)
				changed = true
			}
			c.countUp = 0
		}
	case avg < c.cfg.BMin:
		c.countUp = 0
		c.countDown++
		if c.countDown >= 15-c.log2cw() {
			next := cw / 2
			if next < c.cfg.MinCW {
				next = c.cfg.MinCW
			}
			if next != cw {
				c.cw.SetCWmin(next)
				changed = true
			}
			c.countDown = 0
		}
	default:
		c.countUp = 0
		c.countDown = 0
	}
	if c.OnDecision != nil {
		c.OnDecision(Decision{At: c.now(), Avg: avg, CW: c.cw.CWmin(), Changed: changed})
	}
}
