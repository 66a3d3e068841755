package phy

import (
	"fmt"
	"math/rand"
	"testing"

	"ezflow/internal/obs"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// refFlight is one transmission of the brute-force reference channel.
type refFlight struct {
	src int
	end sim.Time
	seq int // start order: the engine's tie-break between equal ends
}

// refReception mirrors reception for the reference channel.
type refReception struct {
	flight    *refFlight
	signal    float64
	decodable bool
	corrupted bool
}

// refChannel is a receiver-major model of the channel's reception rules
// with no neighbor index: each transmission visits every station, every
// pair's geometry comes from the positions and Config.power at the
// receiver's end, and a newly locked receiver loops over the flights in
// the air itself. It keeps the flight list in the channel's order
// (appended on start, swap-removed on finish), which the order-dependent
// Captures count needs.
type refChannel struct {
	cfg    Config
	radius float64
	pos    []Position
	sensed []int32
	busyTx []bool
	rx     []refReception
	flight []*refFlight
	starts int

	collisions, captures []uint64 // per receiver
}

func newRefChannel(cfg Config, pos []Position) *refChannel {
	n := len(pos)
	return &refChannel{
		cfg:        cfg,
		radius:     cfg.interferenceRange(),
		pos:        append([]Position(nil), pos...),
		sensed:     make([]int32, n),
		busyTx:     make([]bool, n),
		rx:         make([]refReception, n),
		collisions: make([]uint64, n),
		captures:   make([]uint64, n),
	}
}

// interfere applies energy of power p to receiver j's locked frame. A
// noise lock (not decodable) is never marked corrupted: nothing reads
// the flag of a frame that cannot be delivered.
func (r *refChannel) interfere(j int, p float64) {
	rx := &r.rx[j]
	if !rx.decodable {
		return
	}
	if rx.signal < r.cfg.CaptureRatio*p {
		if !rx.corrupted {
			r.collisions[j]++
		}
		rx.corrupted = true
	} else if !rx.corrupted {
		r.captures[j]++
	}
}

func (r *refChannel) transmit(src int, end sim.Time) {
	f := &refFlight{src: src, end: end, seq: r.starts}
	r.starts++
	r.flight = append(r.flight, f)
	r.busyTx[src] = true
	for j := range r.pos {
		d := r.pos[j].Dist(r.pos[src])
		if j == src || d > r.radius {
			continue
		}
		inCS := d <= r.cfg.CSRange
		if inCS {
			r.sensed[j]++
		}
		switch rx := &r.rx[j]; {
		case r.busyTx[j]:
		case rx.flight != nil:
			r.interfere(j, r.cfg.power(d))
		case inCS:
			*rx = refReception{flight: f, signal: r.cfg.power(d), decodable: d <= r.cfg.TxRange}
			for _, o := range r.flight {
				if rx.corrupted {
					break
				}
				if od := r.pos[j].Dist(r.pos[o.src]); o != f && od <= r.radius {
					r.interfere(j, r.cfg.power(od))
				}
			}
		}
	}
}

// finish ends the flight the engine fires next: the earliest end, ties
// broken by start order.
func (r *refChannel) finish() sim.Time {
	at := 0
	for i, f := range r.flight {
		if g := r.flight[at]; f.end < g.end || f.end == g.end && f.seq < g.seq {
			at = i
		}
	}
	f := r.flight[at]
	r.busyTx[f.src] = false
	for j := range r.pos {
		if j != f.src && r.pos[j].Dist(r.pos[f.src]) <= r.cfg.CSRange {
			r.sensed[j]--
		}
		if r.rx[j].flight == f {
			r.rx[j] = refReception{}
		}
	}
	last := len(r.flight) - 1
	r.flight[at] = r.flight[last]
	r.flight = r.flight[:last]
	return f.end
}

// move relocates station j by MoveNodes' rules: its sensed count is
// recounted against the flights at its new position, a lock survives
// only while its transmitter stays within CSRange, and no lock is
// gained mid-flight.
func (r *refChannel) move(j int, p Position) {
	r.pos[j] = p
	r.sensed[j] = 0
	for _, f := range r.flight {
		if f.src != j && p.Dist(r.pos[f.src]) <= r.cfg.CSRange {
			r.sensed[j]++
		}
	}
	if f := r.rx[j].flight; f != nil && p.Dist(r.pos[f.src]) > r.cfg.CSRange {
		r.rx[j] = refReception{}
	}
}

// counts snapshots reg into a name -> value map.
func counts(reg *obs.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for _, m := range reg.Snapshot(0).Metrics {
		out[m.Name] = uint64(m.Value)
	}
	return out
}

// check compares the channel's reception state, counters and flight
// order with the reference. reg holds the channel's "collisions" and
// "captures" families, labelled by station slot.
func (r *refChannel) check(t *testing.T, ch *Channel, reg *obs.Registry, when string) {
	t.Helper()
	var coll, capt uint64
	c := counts(reg)
	for j := range r.pos {
		coll += r.collisions[j]
		capt += r.captures[j]
		if got, want := c[fmt.Sprint("collisions.", j)], r.collisions[j]; got != want {
			t.Fatalf("%s: station %d collisions %d, want %d", when, j, got, want)
		}
		if got, want := c[fmt.Sprint("captures.", j)], r.captures[j]; got != want {
			t.Fatalf("%s: station %d captures %d, want %d", when, j, got, want)
		}
		if ch.sensed[j] != r.sensed[j] || ch.busyTx[j] != r.busyTx[j] {
			t.Fatalf("%s: station %d sensed/busy %d/%v, want %d/%v",
				when, j, ch.sensed[j], ch.busyTx[j], r.sensed[j], r.busyTx[j])
		}
		got, want := ch.rx[j], r.rx[j]
		if (got.tx == nil) != (want.flight == nil) {
			t.Fatalf("%s: station %d locked=%v, want %v", when, j, got.tx != nil, want.flight != nil)
		}
		if want.flight != nil && (int(got.tx.srcn.slot) != want.flight.src || got.signal != want.signal ||
			got.decodable != want.decodable || got.corrupted != want.corrupted) {
			t.Fatalf("%s: station %d reception {src %d, %g, decodable %v, corrupted %v}, want {src %d, %g, %v, %v}",
				when, j, got.tx.srcn.slot, got.signal, got.decodable, got.corrupted,
				want.flight.src, want.signal, want.decodable, want.corrupted)
		}
	}
	if ch.Stats.Collisions != coll || ch.Stats.Captures != capt {
		t.Fatalf("%s: collisions/captures %d/%d, want %d/%d",
			when, ch.Stats.Collisions, ch.Stats.Captures, coll, capt)
	}
	if len(ch.flight) != len(r.flight) {
		t.Fatalf("%s: %d flights, want %d", when, len(ch.flight), len(r.flight))
	}
	for i, f := range ch.flight {
		if int(f.srcn.slot) != r.flight[i].src {
			t.Fatalf("%s: flight %d from %d, want %d", when, i, f.srcn.slot, r.flight[i].src)
		}
	}
}

// TestInterferenceMatchesBruteForce replays random placements with many
// overlapping flights against the receiver-major reference, checking
// after every start and finish the receptions, Stats.Collisions and
// Stats.Captures, and the per-station obs counters. Between bursts, with
// the air clear, random stations move through MoveNodes, so the scan also
// runs over neighbor lists rebuilt after moves.
func TestInterferenceMatchesBruteForce(t *testing.T) {
	cfg := DefaultConfig()
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(30)
		side := 300 + rng.Float64()*1500
		place := func() Position { return Position{X: rng.Float64() * side, Y: rng.Float64() * side} }
		pos := make([]Position, n)
		labels := make([]string, n)
		for i := range pos {
			pos[i] = place()
			labels[i] = fmt.Sprint(i)
		}
		eng := sim.NewEngine(seed)
		ch := NewChannel(eng, cfg)
		sts := make([]*Station, n)
		for i, p := range pos {
			sts[i] = ch.AddNode(pkt.NodeID(i), p, nil)
		}
		reg := obs.NewRegistry()
		ch.SetCounters(Counters{
			Collisions: reg.CounterVec("collisions", labels),
			Captures:   reg.CounterVec("captures", labels),
		})
		ref := newRefChannel(cfg, pos)

		maxFlights, moves := 0, 0
		for step := 0; step < 3000; step++ {
			when := fmt.Sprintf("seed %d step %d", seed, step)
			if step%300 == 299 {
				// Clear the air, then move a few stations.
				for len(ref.flight) > 0 {
					eng.RunStep()
					ref.finish()
				}
				for range 1 + rng.Intn(3) {
					i := rng.Intn(n)
					p := place()
					ch.MoveNodes([]Move{{pkt.NodeID(i), p}})
					ref.pos[i] = p
					moves++
				}
				ref.check(t, ch, reg, when+" after moves")
				continue
			}
			if len(ref.flight) > 0 && rng.Intn(5) < 2 {
				eng.RunStep()
				if at := ref.finish(); at != eng.Now() {
					t.Fatalf("%s: finish at %v, reference %v", when, eng.Now(), at)
				}
				ref.check(t, ch, reg, when+" finish")
				continue
			}
			src := rng.Intn(n)
			if ref.busyTx[src] {
				continue
			}
			p := pkt.NewPool().Packet(1, uint64(step), pkt.NodeID(src), 0, 1+rng.Intn(4)*300, 0)
			end := ch.TransmitFrom(sts[src], &pkt.Frame{Type: pkt.FrameData, TxSrc: pkt.NodeID(src), Payload: p})
			ref.transmit(src, end)
			maxFlights = max(maxFlights, len(ref.flight))
			ref.check(t, ch, reg, when+" transmit")
		}
		if maxFlights < 5 || moves == 0 || ch.Stats.Collisions == 0 || ch.Stats.Captures == 0 {
			t.Fatalf("seed %d: stream too tame: at most %d flights, %d moves, %d collisions, %d captures",
				seed, maxFlights, moves, ch.Stats.Collisions, ch.Stats.Captures)
		}
	}
}

// TestNoiseLockTakesNoInterference overlaps one interfering flight with
// two receivers locked onto another frame: D decodably, N only as a
// noise lock (in carrier-sense range, beyond decode range). The
// interferer is strong enough at N to destroy a frame N could decode, so
// the test shows that Collisions, Captures and ReceiveError come from D
// alone and N's reception is never marked corrupted. The interferer
// starts after the locks (the walk in TransmitFrom) or, beyond both
// receivers' carrier-sense range, before them (interfere).
func TestNoiseLockTakesNoInterference(t *testing.T) {
	const a, d, n, i = 0, 1, 2, 3
	for _, tc := range []struct {
		name       string
		pos        []Position // a, d, n, i
		iFirst     bool
		collisions uint64
		captures   uint64
	}{
		{"collision", []Position{{X: 0}, {X: 200}, {X: -400}, {X: 300}}, false, 1, 0},
		{"capture", []Position{{X: 0}, {X: 200}, {X: -400}, {X: -200}}, false, 0, 1},
		{"capture, interferer first", []Position{{X: 0}, {X: -200}, {X: -400}, {X: -960}}, true, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, ch, radios := setup(t, tc.pos...)
			cfg := ch.Config()
			// N's lock is a noise lock that the interferer's energy
			// could destroy, were N's frame decodable.
			dn, in := tc.pos[n].Dist(tc.pos[a]), tc.pos[n].Dist(tc.pos[i])
			if dn <= cfg.TxRange || dn > cfg.CSRange || cfg.power(dn) >= cfg.CaptureRatio*cfg.power(in) {
				t.Fatalf("placement: N at %.0f m from A and %.0f m from I is not an endangered noise lock", dn, in)
			}
			reg := obs.NewRegistry()
			labels := []string{"a", "d", "n", "i"}
			ch.SetCounters(Counters{Collisions: reg.CounterVec("collisions", labels), Captures: reg.CounterVec("captures", labels)})
			if tc.iFirst {
				transmit(ch, i, frame(i, a))
				transmit(ch, a, frame(a, d))
			} else {
				transmit(ch, a, frame(a, d))
				transmit(ch, i, frame(i, a))
			}
			if ch.rx[n].tx == nil || ch.rx[n].decodable || ch.rx[n].corrupted {
				t.Fatalf("N's reception %+v, want an uncorrupted noise lock", ch.rx[n])
			}
			if ch.rx[d].tx == nil || !ch.rx[d].decodable || ch.rx[d].corrupted != (tc.collisions > 0) {
				t.Fatalf("D's reception %+v, want a decodable lock, corrupted=%v", ch.rx[d], tc.collisions > 0)
			}
			eng.Run(sim.Second)
			if ch.Stats.Collisions != tc.collisions || ch.Stats.Captures != tc.captures {
				t.Fatalf("collisions/captures %d/%d, want %d/%d",
					ch.Stats.Collisions, ch.Stats.Captures, tc.collisions, tc.captures)
			}
			c := counts(reg)
			if c["collisions.d"] != tc.collisions || c["captures.d"] != tc.captures ||
				c["collisions.n"] != 0 || c["captures.n"] != 0 {
				t.Fatalf("per-station collisions D %d N %d, captures D %d N %d",
					c["collisions.d"], c["collisions.n"], c["captures.d"], c["captures.n"])
			}
			wantErr, wantRx := 0, 1
			if tc.collisions > 0 {
				wantErr, wantRx = 1, 0
			}
			if radios[d].errors != wantErr || len(radios[d].received) != wantRx {
				t.Fatalf("D: %d receive errors, %d frames, want %d and %d", radios[d].errors, len(radios[d].received), wantErr, wantRx)
			}
			if r := radios[n]; r.errors != 0 || len(r.received) != 0 || len(r.overheard) != 0 {
				t.Fatalf("N: %d receive errors, %d frames, %d overheard, want none", r.errors, len(r.received), len(r.overheard))
			}
		})
	}
}

// TestFarRingInterference places an interferer I in D's far ring —
// beyond carrier-sense range, so neither lists the other — while D holds
// a decodable lock on A's frame from 200 m. I starts after D locked (the
// far ring reached through A's flight's receivers) or is already on the
// air when D locks (interfere settling a pair missing from I's list).
// The power ratio at D, (d/200)⁴ for I at d metres, falls on either side
// of the capture ratio, or on it (so the outcome is settled from the
// powers themselves: equal is a capture); past the interference radius I
// adds no count.
func TestFarRingInterference(t *testing.T) {
	const a, d, i = 0, 1, 2
	for _, tc := range []struct {
		name                 string
		captureRatio, dist   float64 // I's distance from D
		collisions, captures uint64
	}{
		{"collision", 100, 600, 1, 0}, // ratio 81 < 100
		{"capture", 100, 900, 0, 1},   // ratio 410 >= 100
		{"capture at 10 dB", 10, 600, 0, 1},
		{"capture at the threshold", 81, 600, 0, 1},
		{"beyond the interference radius", 10, 1000, 0, 0},
	} {
		for _, iFirst := range []bool{false, true} {
			order := "I after the lock"
			if iFirst {
				order = "I on the air first"
			}
			t.Run(tc.name+"/"+order, func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.CaptureRatio = tc.captureRatio
				pos := []Position{{X: 0}, {X: 200}, {X: 200 + tc.dist}}
				eng, ch, radios := setupConfig(t, cfg, pos...)
				if r := cfg.interferenceRange(); tc.dist <= cfg.CSRange || (tc.dist <= r) != (tc.collisions+tc.captures > 0) {
					t.Fatalf("placement: I at %.0f m from D, CS range %.0f m, interference radius %.0f m", tc.dist, cfg.CSRange, r)
				}
				if iFirst {
					transmit(ch, i, frame(i, a))
					transmit(ch, a, frame(a, d))
				} else {
					transmit(ch, a, frame(a, d))
					transmit(ch, i, frame(i, a))
				}
				if ch.rx[d].tx == nil || ch.rx[d].tx.srcn.id != a || !ch.rx[d].decodable {
					t.Fatalf("D's reception %+v, want a decodable lock on A", ch.rx[d])
				}
				if ch.Stats.Collisions != tc.collisions || ch.Stats.Captures != tc.captures {
					t.Fatalf("collisions/captures %d/%d, want %d/%d",
						ch.Stats.Collisions, ch.Stats.Captures, tc.collisions, tc.captures)
				}
				eng.Run(sim.Second)
				wantErr, wantRx := 0, 1
				if tc.collisions > 0 {
					wantErr, wantRx = 1, 0
				}
				if radios[d].errors != wantErr || len(radios[d].received) != wantRx {
					t.Fatalf("D: %d receive errors, %d frames, want %d and %d",
						radios[d].errors, len(radios[d].received), wantErr, wantRx)
				}
			})
		}
	}
}

// FuzzInterference runs the channel and the receiver-major reference
// through a fuzzed placement, capture ratio and schedule, checking after
// every step the receptions, Stats.Collisions and Stats.Captures, and the
// per-station obs counters. Each schedule byte names a station (its low
// six bits, modulo the station count) and an action (its top two bits):
// start a flight from it, end the next flight, or move it to a random
// spot. Moves happen with flights on the air, so locks are kept or lost
// mid-flight and the flights' receiver lists go stale. Schedules are cut
// at 128 steps: every step runs the full check, and a short input keeps
// the fuzzer's minimization quick.
func FuzzInterference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		n         uint8
		side, cr  float64
		scheduleN int
	}{{12, 600, 10, 128}, {40, 1500, 10, 128}, {30, 2500, 100, 128}, {20, 900, 0.5, 100}, {25, 1800, 1000, 128}} {
		schedule := make([]byte, tc.scheduleN)
		rng.Read(schedule)
		f.Add(rng.Int63(), tc.n, tc.side, tc.cr, schedule)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8, side, cr float64, schedule []byte) {
		if n < 2 || n > 64 || !(side >= 10 && side <= 1e4) || !(cr >= 0.1 && cr <= 1e4) {
			t.Skip()
		}
		schedule = schedule[:min(len(schedule), 128)]
		cfg := DefaultConfig()
		cfg.CaptureRatio = cr
		rng := rand.New(rand.NewSource(seed))
		place := func() Position { return Position{X: rng.Float64() * side, Y: rng.Float64() * side} }
		pos := make([]Position, n)
		labels := make([]string, n)
		for i := range pos {
			pos[i] = place()
			labels[i] = fmt.Sprint(i)
		}
		eng := sim.NewEngine(seed)
		ch := NewChannel(eng, cfg)
		sts := make([]*Station, n)
		for i, p := range pos {
			sts[i] = ch.AddNode(pkt.NodeID(i), p, nil)
		}
		reg := obs.NewRegistry()
		ch.SetCounters(Counters{
			Collisions: reg.CounterVec("collisions", labels),
			Captures:   reg.CounterVec("captures", labels),
		})
		ref := newRefChannel(cfg, pos)
		pool := pkt.NewPool()
		for step, b := range schedule {
			when := fmt.Sprintf("step %d", step)
			j := int(b&63) % int(n)
			switch b >> 6 {
			case 0, 1:
				if ref.busyTx[j] {
					continue
				}
				p := pool.Packet(1, uint64(step), pkt.NodeID(j), 0, 1+rng.Intn(4)*300, 0)
				end := ch.TransmitFrom(sts[j], &pkt.Frame{Type: pkt.FrameData, TxSrc: pkt.NodeID(j), Payload: p})
				ref.transmit(j, end)
				when += " transmit"
			case 2:
				if len(ref.flight) == 0 {
					continue
				}
				eng.RunStep()
				if at := ref.finish(); at != eng.Now() {
					t.Fatalf("%s: finish at %v, reference %v", when, eng.Now(), at)
				}
				when += " finish"
			case 3:
				if ref.busyTx[j] {
					continue
				}
				p := place()
				ch.MoveNodes([]Move{{pkt.NodeID(j), p}})
				ref.move(j, p)
				when += " move"
			}
			if ch.indexed { // a move before the first flight only adopts the position
				ref.check(t, ch, reg, when)
			}
		}
		for len(ref.flight) > 0 {
			eng.RunStep()
			ref.finish()
		}
		if ch.indexed {
			ref.check(t, ch, reg, "drained")
		}
	})
}

// TestFarRingSkipsStaleReceivers moves R, locked decodably onto A's
// frame, out of A's carrier-sense range mid-flight, which drops the lock
// but leaves R listed among A's flight's receivers, and locks R onto B's
// frame instead. C then starts in R's far ring: R must take C's energy
// once, for B's frame, and not again through A's stale list.
func TestFarRingSkipsStaleReceivers(t *testing.T) {
	const a, r, b, c = 0, 1, 2, 3
	eng, ch, radios := setup(t, Position{}, Position{X: 200}, Position{X: 2200}, Position{X: 2000, Y: 700})
	transmit(ch, a, frame(a, r))
	ch.MoveNodes([]Move{{r, Position{X: 2000}}})
	if ch.rx[r].tx != nil {
		t.Fatal("R kept its lock on A after leaving A's carrier-sense range")
	}
	transmit(ch, b, frame(b, r))
	transmit(ch, c, frame(c, b))
	if ch.rx[r].tx == nil || ch.rx[r].tx.srcn.id != b || ch.rx[r].corrupted {
		t.Fatalf("R's reception %+v, want an intact lock on B", ch.rx[r])
	}
	if ch.Stats.Collisions != 0 || ch.Stats.Captures != 1 {
		t.Fatalf("collisions/captures %d/%d, want 0/1", ch.Stats.Collisions, ch.Stats.Captures)
	}
	eng.Run(sim.Second)
	if len(radios[r].received) != 1 || radios[r].received[0].TxSrc != b {
		t.Fatalf("R received %d frames, want B's", len(radios[r].received))
	}
}
