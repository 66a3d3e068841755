package main

import (
	"slices"
	"time"
)

// calibrator measures the host's current speed with a fixed kernel that
// shares no code with the simulator: a 4-ary event heap of 32k events
// driven by a xorshift generator, plus a random walk over a 256 KB table —
// heap traffic, branches and an L2-sized working set, like the
// simulator's event loop and PHY neighbor walks. Passes interleave it
// with their work; scaling measured times by the kernel's reference time
// over its measured time removes most of the speed drift a shared host
// shows over seconds to minutes, while any change to the simulator still
// moves the result in full. Among the kernel sizes tried on the reference
// host, this one tracked the paper, disk and mobile workloads best.
type calibrator struct {
	last  time.Time
	units []time.Duration
	spent time.Duration
	heap  []calEvent
	table []uint32
	rng   uint64
	sink  uint64
}

type calEvent struct{ at, seq uint64 }

const (
	// calEvery is the host time between two calibration units.
	calEvery = 100 * time.Millisecond
	// calRefUnit is the median time of one unit on the reference host,
	// the two-vCPU 2.1 GHz Xeon the README's numbers come from;
	// normalised times are expressed in that host's seconds.
	calRefUnit = 2350 * time.Microsecond
	calEvents  = 1 << 15
	calSteps   = 12000
	calTable   = 1 << 16
)

func newCalibrator() *calibrator {
	c := &calibrator{heap: make([]calEvent, 0, calEvents+1), table: make([]uint32, calTable), rng: 0x9E3779B97F4A7C15}
	for i := range c.table {
		c.table[i] = uint32(c.next())
	}
	return c
}

func (c *calibrator) next() uint64 {
	c.rng ^= c.rng << 13
	c.rng ^= c.rng >> 7
	c.rng ^= c.rng << 17
	return c.rng
}

// due reports whether calEvery has passed since the last unit.
func (c *calibrator) due() bool {
	return len(c.units) == 0 || time.Since(c.last) >= calEvery
}

// unit runs the kernel once and records its time.
func (c *calibrator) unit() {
	start := time.Now()
	c.rng = 0x9E3779B97F4A7C15
	h := c.heap[:0]
	var seq uint64
	for i := 0; i < calEvents; i++ {
		seq++
		h = calPush(h, calEvent{at: c.next() & 0xffff, seq: seq})
	}
	idx := uint32(0)
	for i := 0; i < calSteps; i++ {
		var e calEvent
		h, e = calPop(h)
		idx = (c.table[(idx^uint32(e.at))&(calTable-1)] + uint32(e.seq)) & (calTable - 1)
		c.sink += uint64(idx)
		seq++
		h = calPush(h, calEvent{at: e.at + 1 + c.next()&0x3ff, seq: seq})
	}
	c.heap = h
	d := time.Since(start)
	c.units = append(c.units, d)
	c.spent += d
	c.last = time.Now()
}

// speed is the reference unit time over the median unit time of the
// whole pass: above 1 on a host faster than the reference, below 1 on a
// slower one.
func (c *calibrator) speed() float64 { return speedOf(c.units) }

// scale converts a host time measured just now into reference-host time
// by the speed of the last three units, which follows the host more
// closely than the whole pass's median.
func (c *calibrator) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * speedOf(c.units[max(len(c.units)-3, 0):]))
}

// speedOf is the reference unit time over the median of units. The
// median ignores units that a concurrent GC cycle or a scheduler hiccup
// slowed down.
func speedOf(units []time.Duration) float64 {
	if len(units) == 0 {
		return 1
	}
	s := slices.Clone(units)
	slices.Sort(s)
	return float64(calRefUnit) / float64(s[len(s)/2])
}

func calLess(a, b calEvent) bool { return a.at < b.at || (a.at == b.at && a.seq < b.seq) }

func calPush(h []calEvent, e calEvent) []calEvent {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !calLess(e, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	return h
}

func calPop(h []calEvent) ([]calEvent, calEvent) {
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h = h[:n]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if calLess(h[j], h[m]) {
				m = j
			}
		}
		if !calLess(h[m], e) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = e
	}
	return h, top
}
