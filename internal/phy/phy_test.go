package phy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// fakeRadio records the PHY indications a node receives.
type fakeRadio struct {
	busy      []bool
	received  []*pkt.Frame
	overheard []*pkt.Frame
	errors    int
}

func (r *fakeRadio) CarrierBusy(b bool)   { r.busy = append(r.busy, b) }
func (r *fakeRadio) Receive(f *pkt.Frame) { r.received = append(r.received, f) }
func (r *fakeRadio) ReceiveError()        { r.errors++ }
func (r *fakeRadio) Overhear(f *pkt.Frame, _ pkt.CaptureInfo) {
	r.overheard = append(r.overheard, f)
}

func frame(src, dst pkt.NodeID) *pkt.Frame {
	p := pkt.NewPool().Packet(1, 1, src, dst, 1000, 0)
	return &pkt.Frame{Type: pkt.FrameData, TxSrc: src, TxDst: dst, Payload: p}
}

func setup(t *testing.T, positions ...Position) (*sim.Engine, *Channel, []*fakeRadio) {
	t.Helper()
	return setupConfig(t, DefaultConfig(), positions...)
}

// setupConfig is setup over a channel with the given configuration.
func setupConfig(t *testing.T, cfg Config, positions ...Position) (*sim.Engine, *Channel, []*fakeRadio) {
	t.Helper()
	eng := sim.NewEngine(1)
	ch := NewChannel(eng, cfg)
	radios := make([]*fakeRadio, len(positions))
	for i, pos := range positions {
		radios[i] = &fakeRadio{}
		ch.AddNode(pkt.NodeID(i), pos, radios[i])
	}
	return eng, ch, radios
}

func TestAirTime(t *testing.T) {
	cfg := DefaultConfig()
	// 1000 bytes at 1 Mb/s = 8 ms + 192 us preamble.
	want := 192*sim.Microsecond + 8*sim.Millisecond
	if got := cfg.AirTime(1000); got != want {
		t.Fatalf("AirTime(1000) = %v, want %v", got, want)
	}
}

func TestBasicDelivery(t *testing.T) {
	eng, ch, radios := setup(t, Position{X: 0}, Position{X: 200})
	transmit(ch, 0, frame(0, 1))
	eng.Run(sim.Second)
	if len(radios[1].received) != 1 {
		t.Fatalf("receiver got %d frames, want 1", len(radios[1].received))
	}
	if len(radios[1].overheard) != 1 {
		t.Fatalf("tap got %d frames, want 1", len(radios[1].overheard))
	}
	if len(radios[0].received) != 0 {
		t.Fatal("transmitter received its own frame")
	}
}

func TestOutOfRangeNoDelivery(t *testing.T) {
	eng, ch, radios := setup(t, Position{X: 0}, Position{X: 300})
	transmit(ch, 0, frame(0, 1))
	eng.Run(sim.Second)
	if len(radios[1].received) != 0 {
		t.Fatal("out-of-range node decoded a frame")
	}
}

func TestOverhearNotAddressed(t *testing.T) {
	// Node 2 is in range of node 0 but the frame is addressed to node 1:
	// node 2 must overhear but not Receive — the broadcast-nature property
	// EZ-Flow is built on.
	eng, ch, radios := setup(t, Position{X: 0}, Position{X: 200}, Position{X: 100, Y: 100})
	transmit(ch, 0, frame(0, 1))
	eng.Run(sim.Second)
	if len(radios[2].received) != 0 {
		t.Fatal("third party Received an addressed frame")
	}
	if len(radios[2].overheard) != 1 {
		t.Fatal("third party did not overhear the frame")
	}
}

func TestCarrierSense(t *testing.T) {
	eng, ch, radios := setup(t, Position{X: 0}, Position{X: 500}, Position{X: 600})
	if ch.Busy(1) {
		t.Fatal("medium busy before any transmission")
	}
	transmit(ch, 0, frame(0, 1))
	if !ch.Busy(1) {
		t.Fatal("node within CS range does not sense the transmission")
	}
	if ch.Busy(2) {
		t.Fatal("node beyond CS range senses the transmission")
	}
	eng.Run(sim.Second)
	if ch.Busy(1) {
		t.Fatal("medium still busy after the transmission ended")
	}
	// Busy/idle indications arrived in pairs.
	if len(radios[1].busy) != 2 || !radios[1].busy[0] || radios[1].busy[1] {
		t.Fatalf("CS indications: %v", radios[1].busy)
	}
	if len(radios[2].busy) != 0 {
		t.Fatal("far node received CS indications")
	}
}

func TestHiddenTerminalCollision(t *testing.T) {
	// 0 and 2 are hidden from each other (600 m apart); 1 sits between
	// them at 200/400 m. Node 2 transmits first, node 1 locks onto its
	// energy (decodable? 400 > 250: noise lock), then node 0's frame
	// arrives 16x stronger — but under lock-first semantics node 1 cannot
	// decode it.
	eng, ch, radios := setup(t, Position{X: 0}, Position{X: 200}, Position{X: 600})
	transmit(ch, 2, frame(2, 1))
	eng.Schedule(sim.Millisecond, func() { transmit(ch, 0, frame(0, 1)) })
	eng.Run(sim.Second)
	if len(radios[1].received) != 0 {
		t.Fatal("frame decoded despite noise lock from a hidden terminal")
	}
}

func TestCaptureStrongerFirst(t *testing.T) {
	// Node 0's frame (200 m) locks node 1 first; node 2's interference
	// from 400 m is 16x weaker (12 dB > 10 dB threshold): captured over.
	eng, ch, radios := setup(t, Position{X: 0}, Position{X: 200}, Position{X: 600})
	transmit(ch, 0, frame(0, 1))
	eng.Schedule(sim.Millisecond, func() { transmit(ch, 2, frame(2, 1)) })
	eng.Run(sim.Second)
	if len(radios[1].received) != 1 {
		t.Fatal("capture failed: stronger first frame was not decoded")
	}
}

func TestEqualPowerCollision(t *testing.T) {
	// Two transmitters both 200 m from the receiver: equal power, no
	// capture, both lost; the receiver reports a receive error (EIFS).
	eng, ch, radios := setup(t,
		Position{X: 0}, Position{X: 200}, Position{X: 400})
	transmit(ch, 0, frame(0, 1))
	eng.Schedule(sim.Millisecond, func() { transmit(ch, 2, frame(2, 1)) })
	eng.Run(sim.Second)
	if len(radios[1].received) != 0 {
		t.Fatal("equal-power collision decoded a frame")
	}
	if radios[1].errors == 0 {
		t.Fatal("collision on a decodable frame did not raise ReceiveError")
	}
	if ch.Stats.Collisions == 0 {
		t.Fatal("collision counter not incremented")
	}
}

func TestHalfDuplex(t *testing.T) {
	eng, ch, radios := setup(t, Position{X: 0}, Position{X: 200})
	transmit(ch, 1, frame(1, 0)) // node 1 is transmitting...
	transmit(ch, 0, frame(0, 1)) // ...so it cannot receive this
	eng.Run(sim.Second)
	if len(radios[1].received) != 0 {
		t.Fatal("half-duplex violation: node received while transmitting")
	}
}

func TestLinkLossErasure(t *testing.T) {
	eng, ch, radios := setup(t, Position{X: 0}, Position{X: 200})
	ch.SetLinkLoss(0, 1, 1.0)
	transmit(ch, 0, frame(0, 1))
	eng.Run(sim.Second)
	if len(radios[1].received) != 0 {
		t.Fatal("frame delivered across a 100%-loss link")
	}
	if ch.Stats.Erasures != 1 {
		t.Fatalf("erasures = %d, want 1", ch.Stats.Erasures)
	}
	if ch.LinkLoss(0, 1) != 1.0 {
		t.Fatal("LinkLoss readback")
	}
}

func TestLinkLossIsDirectional(t *testing.T) {
	eng, ch, radios := setup(t, Position{X: 0}, Position{X: 200})
	ch.SetLinkLoss(0, 1, 1.0)
	transmit(ch, 1, frame(1, 0)) // reverse direction unaffected
	eng.Run(sim.Second)
	if len(radios[0].received) != 1 {
		t.Fatal("reverse direction affected by forward loss")
	}
}

func TestTransmitWhileTransmittingPanics(t *testing.T) {
	_, ch, _ := setup(t, Position{X: 0}, Position{X: 200})
	transmit(ch, 0, frame(0, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("double transmit did not panic")
		}
	}()
	transmit(ch, 0, frame(0, 1))
}

func TestDuplicateNodePanics(t *testing.T) {
	_, ch, _ := setup(t, Position{X: 0})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddNode did not panic")
		}
	}()
	ch.AddNode(0, Position{X: 1}, &fakeRadio{})
}

// TestAddNodeAfterBuildPanics pins the channel's lifecycle: stations
// register, then the first TransmitFrom or TxNeighbors call builds the
// neighbor index, and from then on AddNode panics and registers nothing,
// also after a MoveNodes rebuild. Moves before the build only adopt
// positions and leave registration open.
func TestAddNodeAfterBuildPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(eng *sim.Engine, ch *Channel)
	}{
		{"after TransmitFrom", func(_ *sim.Engine, ch *Channel) { transmit(ch, 0, frame(0, 1)) }},
		{"after TxNeighbors", func(_ *sim.Engine, ch *Channel) { ch.TxNeighbors(0, func(pkt.NodeID) {}) }},
		{"after a post-build MoveNodes", func(eng *sim.Engine, ch *Channel) {
			transmit(ch, 0, frame(0, 1))
			eng.Run(sim.Second)
			ch.MoveNodes([]Move{{1, Position{X: 150}}})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, ch, _ := setup(t, Position{X: 0}, Position{X: 200})
			ch.MoveNodes([]Move{{1, Position{X: 210}}})
			ch.AddNode(2, Position{X: 400}, &fakeRadio{}) // before the build: accepted
			tc.build(eng, ch)
			defer func() {
				if recover() == nil {
					t.Fatal("AddNode after the index was built did not panic")
				}
				if n := len(ch.NodeIDs()); n != 3 {
					t.Fatalf("the refused AddNode left %d stations, want 3", n)
				}
			}()
			ch.AddNode(3, Position{X: 600}, &fakeRadio{})
		})
	}
}

func TestRangePredicates(t *testing.T) {
	_, ch, _ := setup(t, Position{X: 0}, Position{X: 200}, Position{X: 400}, Position{X: 600})
	if !ch.InTxRange(0, 1) || ch.InTxRange(0, 2) {
		t.Fatal("InTxRange")
	}
	if !ch.InCSRange(0, 2) || ch.InCSRange(0, 3) {
		t.Fatal("InCSRange")
	}
	if len(ch.NodeIDs()) != 4 {
		t.Fatal("NodeIDs")
	}
	if ch.Position(2).X != 400 {
		t.Fatal("Position")
	}
}

func TestPositionDist(t *testing.T) {
	a, b := Position{X: 0, Y: 0}, Position{X: 3, Y: 4}
	if a.Dist(b) != 5 {
		t.Fatal("Dist(3-4-5)")
	}
}

// TestReachWithinMatchesHypot pins Reach.Within to its definition,
// math.Hypot(dx, dy) <= lim, on a seeded sweep of pairs placed within a
// few ulps and within 1e-10 (relative) of the limit, where the squared
// screen must hand the pair to math.Hypot, plus pairs clear of it and
// non-finite ones.
func TestReachWithinMatchesHypot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	check := func(lim float64, p, q Position) {
		t.Helper()
		want := math.Hypot(p.X-q.X, p.Y-q.Y) <= lim
		if got := NewReach(lim).Within(p, q); got != want {
			t.Fatalf("lim %v, %v to %v: Within = %v, Hypot says %v", lim, p, q, got, want)
		}
	}
	var in, out, band int
	for range 200000 {
		lim := 1000 * rng.Float64()
		p := Position{X: 4000 * (rng.Float64() - 0.5), Y: 4000 * (rng.Float64() - 0.5)}
		d := lim
		switch rng.Intn(4) {
		case 0: // up to two ulps either side
			steps := rng.Intn(5) - 2
			toward := math.Copysign(math.Inf(1), float64(steps))
			for range max(steps, -steps) {
				d = math.Nextafter(d, toward)
			}
		case 1:
			d *= 1 + 2e-10*(rng.Float64()-0.5)
		case 2:
			d *= 2 * rng.Float64()
		}
		sin, cos := math.Sincos(2 * math.Pi * rng.Float64())
		q := Position{X: p.X + d*cos, Y: p.Y + d*sin}
		check(lim, p, q)
		dx, dy := p.X-q.X, p.Y-q.Y
		if r, s := NewReach(lim), dx*dx+dy*dy; s >= r.lo && s <= r.hi {
			band++
		}
		if math.Hypot(dx, dy) <= lim {
			in++
		} else {
			out++
		}
	}
	if in < 50000 || out < 50000 || band < 100000 {
		t.Errorf("sweep not concentrated at the limit: %d within, %d beyond, %d in the exact band", in, out, band)
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		lim  float64
		p, q Position
	}{
		{0, Position{}, Position{}},
		{0, Position{}, Position{X: 5e-324}},
		{inf, Position{}, Position{X: 1e300, Y: 1e300}},
		{inf, Position{}, Position{X: inf}},
		{250, Position{}, Position{X: inf}},
		{250, Position{}, Position{Y: nan}},
		{250, Position{X: inf}, Position{X: inf}},
		{nan, Position{}, Position{}},
		{250, Position{}, Position{X: 1e200}},
	} {
		check(c.lim, c.p, c.q)
	}
}

// Property: delivery is monotone in distance — if a frame is decoded at
// distance d with no interference, it is decoded at any smaller distance.
func TestPropertyDeliveryByRange(t *testing.T) {
	f := func(dRaw uint16) bool {
		d := float64(dRaw%700) + 1
		eng := sim.NewEngine(1)
		ch := NewChannel(eng, DefaultConfig())
		r := &fakeRadio{}
		ch.AddNode(0, Position{X: 0}, &fakeRadio{})
		ch.AddNode(1, Position{X: d}, r)
		transmit(ch, 0, frame(0, 1))
		eng.Run(sim.Second)
		got := len(r.received) == 1
		want := d <= DefaultConfig().TxRange
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the sensed counter always returns to zero after all
// transmissions finish, for random transmission schedules.
func TestPropertySenseBalanced(t *testing.T) {
	f := func(starts []uint16) bool {
		if len(starts) > 20 {
			starts = starts[:20]
		}
		eng := sim.NewEngine(1)
		ch := NewChannel(eng, DefaultConfig())
		n := 5
		for i := 0; i < n; i++ {
			ch.AddNode(pkt.NodeID(i), Position{X: float64(i) * 150}, &fakeRadio{})
		}
		for i, s := range starts {
			src := pkt.NodeID(i % n)
			at := sim.Time(s) * sim.Microsecond
			eng.ScheduleAt(at, func() {
				// A node may legitimately still be transmitting from
				// a previous schedule entry; skip those.
				defer func() { _ = recover() }()
				transmit(ch, src, frame(src, (src+1)%pkt.NodeID(n)))
			})
		}
		eng.Run(10 * sim.Second)
		for i := 0; i < n; i++ {
			if ch.Busy(pkt.NodeID(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}); err != nil {
		t.Fatal(err)
	}
}

// TestPowerMatchesPow pins the d⁻⁴ closed form in Config.power to
// math.Pow bit for bit: over 10⁷ seeded distances in [1, 10⁴], across
// consecutive floats around the 250-m decode, 550-m carrier-sense and
// ≈978-m interference radii, at huge distances, and through the d < 1
// clamp. Other exponents must still go through math.Pow.
func TestPowerMatchesPow(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.PathLossExp != 4 {
		t.Fatalf("default path-loss exponent %v, want 4", cfg.PathLossExp)
	}
	check := func(d, want float64) {
		if got := cfg.power(d); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("power(%v) = %v (%#x), want %v (%#x)", d, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for range 10_000_000 {
		d := 1 + rng.Float64()*(1e4-1)
		check(d, math.Pow(d, -4))
	}
	for _, at := range []float64{1, 250, 550, cfg.interferenceRange(), 1e4} {
		down, up := at, at
		for range 100_000 {
			down, up = math.Nextafter(down, 0), math.Nextafter(up, math.Inf(1))
			check(up, math.Pow(up, -4))
			if down >= 1 {
				check(down, math.Pow(down, -4))
			}
		}
	}
	for _, d := range []float64{1e20, 1e75, 0x1p250, 1e76, 1e77, 1e80, math.MaxFloat64, math.Inf(1)} {
		check(d, math.Pow(d, -4))
	}
	for _, d := range []float64{0, 0.5, math.Nextafter(1, 0), -3} {
		check(d, 1) // clamped to d = 1
	}

	for _, exp := range []float64{3, 2.5} {
		c := cfg
		c.PathLossExp = exp
		for _, d := range []float64{1, 7.3, 250, 550, 977.7, 1e4} {
			if got, want := c.power(d), math.Pow(d, -exp); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("exponent %v: power(%v) = %v, want math.Pow's %v", exp, d, got, want)
			}
		}
	}
}
