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

// benchTransmit measures one data-frame Transmit+finish cycle per op,
// rotating the transmitter over every station. Radios are nil, so the
// measurement is pure channel work: carrier-sense bookkeeping, receiver
// locking, interference checks, and delivery resolution.
func benchTransmit(b *testing.B, pos []Position) {
	b.Helper()
	eng := sim.NewEngine(1)
	ch := NewChannel(eng, DefaultConfig())
	sts := make([]*Station, len(pos))
	for i, p := range pos {
		sts[i] = ch.AddNode(pkt.NodeID(i), p, nil)
	}
	send := func(i int) {
		f := ch.Pool().Frame()
		f.Type = pkt.FrameData
		f.TxSrc = pkt.NodeID(i % len(pos))
		f.TxDst = pkt.NodeID((i + 1) % len(pos))
		ch.TransmitFrom(sts[i%len(pos)], f)
		for eng.RunStep() {
		}
	}
	send(0) // warm up: builds the neighbor index, fills the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(i)
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
