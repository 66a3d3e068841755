// Package stats collects and summarises the metrics the paper reports:
// per-flow throughput (mean and standard deviation over time bins),
// end-to-end delay series, queue-occupancy traces, and Jain's fairness
// index (Eq. 1 of the paper).
package stats

import (
	"math"
	"sort"

	"ezflow/internal/sim"
)

// Welford accumulates mean and variance in a single pass.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add incorporates x.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Mean reports the running mean (0 with no samples).
func (w *Welford) Mean() float64 { return w.mean }

// Var reports the sample variance (0 with fewer than 2 samples).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Std reports the sample standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Merge folds another accumulator into w using the parallel-combination
// rule of Chan et al., so that partial statistics computed on separate
// workers combine into exactly the moments a single-stream Add sequence
// would have produced. The zero Welford is a valid identity element.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
}

// WelfordState is the serialisable form of a Welford accumulator: the
// exact running moments, bit for bit. It exists for the campaign fabric
// — a replication's pooled bin statistics travel through cache entries
// and worker-process frames as a WelfordState, and because JSON
// round-trips float64 exactly (Go emits the shortest representation
// that parses back to the same value), an accumulator restored with
// SetState merges identically to the live original.
type WelfordState struct {
	N    uint64  `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// State snapshots w's exact internal moments.
func (w *Welford) State() WelfordState {
	return WelfordState{N: w.n, Mean: w.mean, M2: w.m2}
}

// SetState restores the exact moments captured by State, replacing w.
func (w *Welford) SetState(s WelfordState) {
	w.n, w.mean, w.m2 = s.N, s.Mean, s.M2
}

// Summary is a serialisable snapshot of a Welford accumulator with the
// 95% confidence half-width the campaign reports attach to every metric.
type Summary struct {
	N    uint64  `json:"n"`
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	// CI95 is the half-width of the two-sided 95% confidence interval of
	// the mean (Student t for small samples, 0 with fewer than 2 samples).
	CI95 float64 `json:"ci95"`
}

// Summarize snapshots w into a Summary.
func (w *Welford) Summarize() Summary {
	s := Summary{N: w.n, Mean: w.Mean(), Std: w.Std()}
	if w.n >= 2 {
		s.CI95 = tCrit95(w.n-1) * s.Std / math.Sqrt(float64(w.n))
	}
	return s
}

// t95 holds two-sided 95% Student-t critical values for df 1..30; beyond
// that the normal approximation 1.96 is within half a percent.
var t95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

func tCrit95(df uint64) float64 {
	if df == 0 {
		return 0
	}
	if df <= uint64(len(t95)) {
		return t95[df-1]
	}
	return 1.96
}

// JainIndex computes Jain's fairness index over per-flow throughputs:
// (Σx)² / (n·Σx²). It returns 1 for an empty input by convention and is
// always in (0, 1] for non-negative, not-all-zero inputs.
func JainIndex(x []float64) float64 {
	if len(x) == 0 {
		return 1
	}
	var sum, sq float64
	for _, v := range x {
		sum += v
		sq += v * v
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(x)) * sq)
}

// Point is one sample of a time series.
type Point struct {
	T sim.Time
	V float64
}

// Series is an append-only time series.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t sim.Time, v float64) { s.Points = append(s.Points, Point{t, v}) }

// Len reports the number of points.
func (s *Series) Len() int { return len(s.Points) }

// Mean reports the mean of the values.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.V
	}
	return sum / float64(len(s.Points))
}

// Std reports the sample standard deviation of the values.
func (s *Series) Std() float64 {
	n := len(s.Points)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var sq float64
	for _, p := range s.Points {
		d := p.V - m
		sq += d * d
	}
	return math.Sqrt(sq / float64(n-1))
}

// Max reports the maximum value (0 if empty).
func (s *Series) Max() float64 {
	var mx float64
	for i, p := range s.Points {
		if i == 0 || p.V > mx {
			mx = p.V
		}
	}
	return mx
}

// Window returns the sub-series with from <= T < to.
func (s *Series) Window(from, to sim.Time) *Series {
	out := &Series{Name: s.Name}
	for _, p := range s.Points {
		if p.T >= from && p.T < to {
			out.Points = append(out.Points, p)
		}
	}
	return out
}

// Percentile returns the p-th percentile (0..100) of the values, or 0 if
// the series is empty.
func (s *Series) Percentile(p float64) float64 {
	n := len(s.Points)
	if n == 0 {
		return 0
	}
	vals := make([]float64, n)
	for i, pt := range s.Points {
		vals[i] = pt.V
	}
	sort.Float64s(vals)
	if p <= 0 {
		return vals[0]
	}
	if p >= 100 {
		return vals[n-1]
	}
	idx := p / 100 * float64(n-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= n {
		return vals[n-1]
	}
	return vals[lo]*(1-frac) + vals[lo+1]*frac
}

// FlowMeter bins packet arrivals at a flow's destination into fixed windows
// and produces the throughput time series the paper plots, plus a delay
// series of per-packet end-to-end latencies.
type FlowMeter struct {
	bin        sim.Time
	curStart   sim.Time
	curBytes   int
	Throughput Series // kb/s per bin
	Delay      Series // seconds per delivered packet
	Delivered  uint64
	BytesTotal uint64
}

// NewFlowMeter creates a meter with the given bin width (the paper uses
// 10-second bins for its throughput plots).
func NewFlowMeter(bin sim.Time) *FlowMeter {
	if bin <= 0 {
		bin = 10 * sim.Second
	}
	return &FlowMeter{bin: bin}
}

// OnDeliver records a packet of the flow reaching its destination at time
// now, created at created, carrying bytes payload bytes.
func (f *FlowMeter) OnDeliver(now, created sim.Time, bytes int) {
	f.Delivered++
	f.BytesTotal += uint64(bytes)
	f.Delay.Add(now, (now - created).Seconds())
	for now >= f.curStart+f.bin {
		f.flushBin()
	}
	f.curBytes += bytes
}

func (f *FlowMeter) flushBin() {
	kbps := float64(f.curBytes*8) / f.bin.Seconds() / 1000
	f.Throughput.Add(f.curStart+f.bin, kbps)
	f.curStart += f.bin
	f.curBytes = 0
}

// Close flushes the current partial bin.
func (f *FlowMeter) Close(now sim.Time) {
	for f.curStart+f.bin <= now {
		f.flushBin()
	}
}
