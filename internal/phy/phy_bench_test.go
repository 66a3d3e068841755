// Channel-level hot-path benchmarks: one Transmit+finish cycle with no
// MAC attached (nil radios), isolating the per-transmission broadcast
// cost the neighbor index rebuilt — the O(N)-walk-with-math.Pow path
// became an O(degree) walk over cached link records. BenchmarkChannelTransmit200
// is the headline: ns per transmission on a 200-node random-disk layout.
package phy

import (
	"math"
	"math/rand"
	"testing"

	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// diskPositions places a gateway at the origin plus n-1 area-uniform
// points in a disk sized to the constant-density radius the mesh
// package's random topologies use ((200/2)·√n metres).
func diskPositions(n int, seed int64) []Position {
	radius := 100 * math.Sqrt(float64(n))
	rng := rand.New(rand.NewSource(seed))
	pos := make([]Position, n)
	for i := 1; i < n; i++ {
		r := radius * math.Sqrt(rng.Float64())
		theta := 2 * math.Pi * rng.Float64()
		pos[i] = Position{X: r * math.Cos(theta), Y: r * math.Sin(theta)}
	}
	return pos
}

// chainPositions places n nodes 200 m apart on a line (the paper's chain
// geometry).
func chainPositions(n int) []Position {
	pos := make([]Position, n)
	for i := range pos {
		pos[i] = Position{X: float64(i) * 200}
	}
	return pos
}

// benchChannel registers a station with a nil radio at each position, so
// a measurement is pure channel work: carrier-sense bookkeeping,
// receiver locking, interference checks, and delivery resolution. send
// puts a data frame on the air from station i mod len(pos).
func benchChannel(pos []Position) (eng *sim.Engine, ch *Channel, send func(i int)) {
	eng = sim.NewEngine(1)
	ch = NewChannel(eng, DefaultConfig())
	sts := make([]*Station, len(pos))
	for i, p := range pos {
		sts[i] = ch.AddNode(pkt.NodeID(i), p, nil)
	}
	send = func(i int) {
		f := ch.Pool().Frame()
		f.Type = pkt.FrameData
		f.TxSrc = pkt.NodeID(i % len(pos))
		f.TxDst = pkt.NodeID((i + 1) % len(pos))
		ch.TransmitFrom(sts[i%len(pos)], f)
	}
	return eng, ch, send
}

// benchTransmit measures one data-frame Transmit+finish cycle per op,
// rotating the transmitter over every station.
func benchTransmit(b *testing.B, pos []Position) {
	b.Helper()
	eng, _, send := benchChannel(pos)
	cycle := func(i int) {
		send(i)
		for eng.RunStep() {
		}
	}
	cycle(0) // warm up: builds the neighbor index, fills the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(i)
	}
}

// BenchmarkChannelTransmit200 is the large-topology PHY hot-path number:
// ns per transmission on a 200-node random disk at the default density.
func BenchmarkChannelTransmit200(b *testing.B) {
	benchTransmit(b, diskPositions(200, 1))
}

// BenchmarkChannelTransmitChain5 is the small-topology guard (the
// 4-hop/5-node chain of BenchmarkChainRun): the index must also win when
// every station neighbors every other.
func BenchmarkChannelTransmitChain5(b *testing.B) {
	benchTransmit(b, chainPositions(5))
}

// BenchmarkChannelTransmitOverlap keeps eight flights in the air on the
// 200-node disk: each op starts one transmission and, once eight are
// flying, first finishes the oldest. Every receiver a new frame locks
// meets the seven flights already on the air, so this prices the
// interference scan that the one-flight-at-a-time benchmarks skip.
func BenchmarkChannelTransmitOverlap(b *testing.B) {
	const inAir = 8
	eng, ch, send := benchChannel(diskPositions(200, 1))
	op := func(i int) {
		if len(ch.flight) == inAir {
			eng.RunStep()
		}
		send(i)
	}
	for i := range 2 * inAir { // warm up: the index, the pools, the air
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// BenchmarkBuildIndex times one full neighbor-index build on a fresh
// channel over a 400-node default-density disk: the set-up cost the first
// transmission of a DiskScaling run pays.
func BenchmarkBuildIndex(b *testing.B) {
	b.Run("n=400", func(b *testing.B) {
		pos := diskPositions(400, 1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ch := NewChannel(sim.NewEngine(1), DefaultConfig())
			for j, p := range pos {
				ch.AddNode(pkt.NodeID(j), p, nil)
			}
			b.StartTimer()
			ch.buildIndex()
		}
	})
}
