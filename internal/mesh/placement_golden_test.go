package mesh

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ezflow/internal/mac"
	"ezflow/internal/phy"
	"ezflow/internal/sim"
)

// placementCase is one RandomDiskLossy call the placement golden pins.
type placementCase struct {
	n        int
	seed     int64
	edgeLoss float64
}

// placementCases spans small disks that usually connect on the first
// draw up to 400-node disks near the connectivity threshold. The last
// three 400-node seeds are placements that need 118, 149 and 189
// resamples before they connect, so the golden also pins which attempt
// the resampling loop accepts.
func placementCases() []placementCase {
	var cs []placementCase
	for _, n := range []int{12, 50, 200, 400} {
		for _, seed := range []int64{1, 7, 42} {
			cs = append(cs, placementCase{n: n, seed: seed})
		}
	}
	for _, seed := range []int64{8656488335957430954, 6874497842853893210, 8840730191007823537} {
		cs = append(cs, placementCase{n: 400, seed: seed})
	}
	// Edge-of-range loss calibration on top of the placement.
	for _, n := range []int{12, 50, 200} {
		cs = append(cs, placementCase{n: n, seed: 7, edgeLoss: 0.5})
	}
	return cs
}

// placementFingerprint hashes the exact float bits of every position and
// of every directed link loss, and spells out the installed route.
func placementFingerprint(m *Mesh) string {
	h := sha256.New()
	var buf [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	for _, n := range m.Nodes() {
		p := m.Ch.Position(n.ID)
		put(p.X)
		put(p.Y)
	}
	pos := fmt.Sprintf("%x", h.Sum(nil)[:8])
	h.Reset()
	ids := m.Ch.NodeIDs()
	for _, a := range ids {
		for _, b := range ids {
			put(m.Ch.LinkLoss(a, b))
		}
	}
	return fmt.Sprintf("pos=%s loss=%x route=%v", pos, h.Sum(nil)[:8], m.Route(1))
}

// TestRandomDiskPlacementGolden pins RandomDiskLossy's output — node
// positions to the bit, the calibrated link losses and the installed
// route — so any change to how placements are sampled, checked for
// connectivity or routed must leave testdata/placements.golden
// byte-identical. EZFLOW_UPDATE_GOLDEN=1 rewrites it.
func TestRandomDiskPlacementGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range placementCases() {
		m := RandomDiskLossy(sim.NewEngine(1), c.n, 0, c.seed, c.edgeLoss, phy.DefaultConfig(), mac.DefaultConfig())
		fmt.Fprintf(&b, "n=%d seed=%d edge=%g %s\n", c.n, c.seed, c.edgeLoss, placementFingerprint(m))
	}
	got := []byte(b.String())
	path := filepath.Join("testdata", "placements.golden")
	if os.Getenv("EZFLOW_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("updated placement golden")
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("placements diverge from %s:\n%s", path, got)
	}
}
