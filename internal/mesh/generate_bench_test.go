package mesh

import (
	"fmt"
	"testing"

	"ezflow/internal/mac"
	"ezflow/internal/phy"
	"ezflow/internal/sim"
)

// BenchmarkRandomDiskBuild times RandomDiskLossy without edge loss at the
// DiskScaling sizes on a
// fixed rotation of placement seeds: connectivity resampling, the
// accepted placement's gateway tree, node registration and route install.
// The n=400/hard case rotates over hardPlacementSeeds, which need 118 to
// 189 draws each, so it times the resampling loop itself.
func BenchmarkRandomDiskBuild(b *testing.B) {
	run := func(name string, n int, seeds []int64) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RandomDiskLossy(sim.NewEngine(1), n, 0, seeds[i%len(seeds)], 0, phy.DefaultConfig(), mac.DefaultConfig())
			}
		})
	}
	rotation := make([]int64, 16)
	for i := range rotation {
		rotation[i] = int64(i)
	}
	for _, n := range []int{200, 400} {
		run(fmt.Sprintf("n=%d", n), n, rotation)
	}
	run("n=400/hard", 400, hardPlacementSeeds)
}
