// Batched sample recording: a preallocated ring buffer sits between the
// per-tick probes and the growing time series, so the simulator's hot
// loop appends into fixed storage and the series grows in block-sized
// steps instead of per sample.
package trace

import (
	"ezflow/internal/sim"
	"ezflow/internal/stats"
)

// DefaultRingSize is the number of samples a Ring buffers between
// flushes.
const DefaultRingSize = 256

// Ring is a fixed-capacity sample buffer. Append never allocates; when
// the ring fills, FlushTo drains it into a backing series in one batched
// append.
type Ring struct {
	buf []stats.Point
	n   int
}

// NewRing creates a ring holding size samples (DefaultRingSize if
// size <= 0).
func NewRing(size int) *Ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Ring{buf: make([]stats.Point, size)}
}

// Full reports whether the next Append would overflow.
func (r *Ring) Full() bool { return r.n == len(r.buf) }

// Append adds a sample. The caller must FlushTo before appending to a
// full ring; Append panics otherwise, because silently dropping samples
// would corrupt the exported traces.
func (r *Ring) Append(t sim.Time, v float64) {
	if r.n == len(r.buf) {
		panic("trace: Append to a full Ring")
	}
	r.buf[r.n] = stats.Point{T: t, V: v}
	r.n++
}

// FlushTo drains every buffered sample into s with a single batched
// append and empties the ring.
func (r *Ring) FlushTo(s *stats.Series) {
	if r.n == 0 {
		return
	}
	s.AddBatch(r.buf[:r.n])
	r.n = 0
}

// Recorder periodically samples a float-valued probe into a Series — the
// queue-occupancy traces behind the paper's Figs. 1 and 4 — buffering
// samples in a preallocated Ring and flushing in blocks.
type Recorder struct {
	Series stats.Series
	ring   *Ring
	stop   bool
}

// NewRecorder starts sampling probe every period on eng, buffering up to
// ring samples between flushes (DefaultRingSize if ring <= 0). Call Stop
// at the end of the run to flush the final partial block.
func NewRecorder(eng *sim.Engine, name string, period sim.Time, ring int, probe func() float64) *Recorder {
	r := &Recorder{Series: stats.Series{Name: name}, ring: NewRing(ring)}
	var tick func()
	tick = func() {
		if r.stop {
			return
		}
		if r.ring.Full() {
			r.ring.FlushTo(&r.Series)
		}
		r.ring.Append(eng.Now(), probe())
		eng.ScheduleFunc(period, tick)
	}
	eng.ScheduleFunc(period, tick)
	return r
}

// Stop halts sampling and flushes buffered samples into Series.
func (r *Recorder) Stop() {
	r.stop = true
	r.ring.FlushTo(&r.Series)
}
