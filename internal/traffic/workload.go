// Gateway-scale workload shaping: precomputed activity schedules that
// turn a plain source into an on/off bursty client or a member of a
// Poisson arrival/departure flow population.
//
// Schedules are generated up front from a caller-supplied RNG — never
// the engine RNG — so attaching a workload perturbs no other node's
// event stream, and the whole activity timeline is a pure function of
// the workload seed. All randomness is spent at wiring time; replays and
// sharded campaign executions see identical start/stop events.
package traffic

import (
	"math/rand"

	"ezflow/internal/sim"
)

// Segment is one activity interval: the source generates in
// [Start, Stop).
type Segment struct {
	// Start is when generation begins.
	Start sim.Time
	// Stop is when generation halts.
	Stop sim.Time
}

// ApplySchedule arms the source to run exactly during the given
// segments (ascending, non-overlapping — what the generators below
// produce), scheduling each segment's start and then its stop. It is the
// one way to put a source's activity on the clock; a flow that runs once
// is a one-segment schedule. The source should be stopped when called.
func (s *Source) ApplySchedule(segs []Segment) {
	for _, seg := range segs {
		s.m.Eng.ScheduleAt(seg.Start, s.Start)
		s.m.Eng.ScheduleAt(seg.Stop, s.Stop)
	}
}

// OnOffSchedule generates an exponential on/off activity timeline over
// [0, horizon): alternating silent gaps (mean meanOff) and bursts (mean
// meanOn), starting silent. Both means must be positive.
func OnOffSchedule(rng *rand.Rand, horizon, meanOn, meanOff sim.Time) []Segment {
	if meanOn <= 0 || meanOff <= 0 {
		panic("traffic: OnOffSchedule needs positive on/off means")
	}
	var segs []Segment
	t := sim.Time(0)
	for t < horizon {
		start := t + sim.Time(rng.ExpFloat64()*float64(meanOff))
		if start >= horizon {
			break
		}
		stop := start + sim.Time(rng.ExpFloat64()*float64(meanOn))
		if stop > horizon {
			stop = horizon
		}
		if stop > start {
			segs = append(segs, Segment{Start: start, Stop: stop})
		}
		t = stop
	}
	return segs
}

// ArrivalSchedule generates a Poisson flow arrival/departure timeline
// for one population slot over [0, horizon): arrivals at ratePerSec,
// each holding for an exponential time of mean meanHold; an arrival
// while the slot is already active extends the current activity period
// (interval union), which keeps the slot's on-air behaviour equal to an
// M/G/∞ population member. Rate and mean hold must be positive.
func ArrivalSchedule(rng *rand.Rand, horizon sim.Time, ratePerSec float64, meanHold sim.Time) []Segment {
	if ratePerSec <= 0 || meanHold <= 0 {
		panic("traffic: ArrivalSchedule needs positive rate and hold")
	}
	var segs []Segment
	t := sim.Time(0)
	for {
		t += sim.Time(rng.ExpFloat64() / ratePerSec * float64(sim.Second))
		if t >= horizon {
			break
		}
		stop := t + sim.Time(rng.ExpFloat64()*float64(meanHold))
		if stop > horizon {
			stop = horizon
		}
		if n := len(segs); n > 0 && t <= segs[n-1].Stop {
			if stop > segs[n-1].Stop {
				segs[n-1].Stop = stop
			}
		} else if stop > t {
			segs = append(segs, Segment{Start: t, Stop: stop})
		}
	}
	return segs
}
