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
func BenchmarkRandomDiskBuild(b *testing.B) {
	for _, n := range []int{200, 400} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RandomDiskLossy(sim.NewEngine(1), n, 0, int64(i%16), 0, phy.DefaultConfig(), mac.DefaultConfig())
			}
		})
	}
}
