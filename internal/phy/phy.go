// Package phy models the shared wireless channel.
//
// The model is the one ns-2.33 implements for 802.11 at default power with
// two-ray-ground propagation, which is what the paper's simulations use: a
// node decodes a frame if the transmitter is within the transmission range
// (250 m) and no other transmission overlaps the reception at the listener
// within its interference range; a node senses the channel busy whenever any
// transmitter within the carrier-sense range (550 m) is active. The decode
// range never exceeds the carrier-sense range (TxRange <= CSRange;
// NewChannel panics otherwise), so a node that can decode a transmitter
// also senses it. As in ns-2, the topology is fixed before the run: every
// station registers before the first transmission or routing query
// (TxNeighbors), and none joins after. Because the medium is broadcast,
// every completed reception is delivered not only to the addressed MAC
// but also to every promiscuous tap in range — this is the "free"
// information EZ-Flow's Buffer Occupancy Estimator lives on.
//
// Per-link erasure probabilities model the heterogeneous link qualities of
// the paper's real testbed (Table 1): a loss applies to one receiver of one
// transmission and does not disturb other listeners.
package phy

import (
	"fmt"
	"math"

	"ezflow/internal/obs"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// Position is a node location in metres.
type Position struct{ X, Y float64 }

// Dist returns the Euclidean distance between two positions.
func (p Position) Dist(q Position) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Config holds the channel parameters. The zero value is not useful; use
// DefaultConfig.
type Config struct {
	TxRange    float64  // decode range in metres; at most CSRange
	CSRange    float64  // carrier-sense range in metres
	BitRate    float64  // channel bit rate in bit/s
	PreambleNS sim.Time // PLCP preamble+header duration
	// CaptureRatio is the minimum signal-to-interference power ratio for
	// a locked reception to survive an overlapping transmission (ns-2's
	// CPThresh, 10 = 10 dB). Power follows the two-ray-ground d^-4 law,
	// so an interferer twice as far as the signal source is 12 dB down
	// and is captured over, while an interferer at equal distance (the
	// hidden-terminal case) destroys the frame.
	CaptureRatio float64
	// PathLossExp is the path-loss exponent (4 for two-ray ground).
	PathLossExp float64
}

// DefaultConfig mirrors the paper's ns-2 settings: 802.11b at 1 Mb/s,
// 250 m transmission range, 550 m sensing range, long PLCP preamble,
// two-ray-ground propagation with a 10 dB capture threshold.
func DefaultConfig() Config {
	return Config{
		TxRange:      250,
		CSRange:      550,
		BitRate:      1e6,
		PreambleNS:   192 * sim.Microsecond,
		CaptureRatio: 10,
		PathLossExp:  4,
	}
}

// power is the received power (arbitrary units) at distance d.
//
// The default d⁻⁴ law takes a closed form that equals math.Pow(d, -4)
// to the bit: Pow squares the Frexp mantissa of d twice, rounding each
// time, and inverts the result; squaring d twice and inverting rounds
// the same values scaled by powers of two, which changes no rounding
// while every value stays a normal float (d < 2²⁵⁰). TestPowerMatchesPow
// pins the equality.
func (c Config) power(d float64) float64 {
	if d < 1 {
		d = 1
	}
	if c.PathLossExp == 4 && d < 0x1p250 {
		s := d * d
		return 1 / (s * s)
	}
	return math.Pow(d, -c.PathLossExp)
}

// AirTime reports how long a frame of n bytes occupies the medium.
func (c Config) AirTime(bytes int) sim.Time {
	bits := float64(bytes * 8)
	return c.PreambleNS + sim.Time(bits/c.BitRate*float64(sim.Second))
}

// Radio is the interface the MAC layer implements to receive PHY
// indications.
type Radio interface {
	// CarrierBusy is called when the medium transitions busy/idle at this
	// node's position.
	CarrierBusy(busy bool)
	// Receive delivers a frame that was decoded successfully and is
	// MAC-addressed to this node (or broadcast).
	Receive(f *pkt.Frame)
	// Overhear delivers every frame decoded at this node regardless of MAC
	// address — the promiscuous tap. Called after Receive for addressed
	// frames.
	Overhear(f *pkt.Frame, ci pkt.CaptureInfo)
	// ReceiveError reports that a frame strong enough to decode was
	// destroyed by a collision. 802.11 stations react by deferring EIFS
	// instead of DIFS before their next access.
	ReceiveError()
}

// transmission is an in-flight frame. Transmissions are pooled by the
// channel; finishFn is built once per pooled object so completing a flight
// schedules no new closure. srcn caches the transmitter's station and
// flightIdx its position in the flight list, so completing a flight does
// neither a map lookup nor a linear scan. rcv holds, ascending, the slots
// that locked decodably onto the frame, including any a move has since
// unlocked: readers check the lock.
type transmission struct {
	srcn      *Station
	frame     *pkt.Frame
	start     sim.Time
	end       sim.Time
	flightIdx int
	rcv       []int32
	finishFn  func()
}

// Station is the PHY-side identity of one registered node. AddNode
// returns it as an opaque handle; the MAC layer passes it back to
// TransmitFrom so the per-transmission path never resolves a node id
// through a map. Mutable per-event state (carrier-sense counts, busy
// flags, reception tracking) lives in the Channel's dense slot-indexed
// arrays, not here, so the hot-path walks stay within a few
// cache-resident slices.
type Station struct {
	id    pkt.NodeID
	pos   Position
	radio Radio
	slot  int32 // dense index (position in Channel.order); -1 until the first index build fixes it
	// Neighbor index (built in index.go): nbrs lists every station within
	// carrier-sense range ascending by slot; nbrSlots mirrors their slots
	// in a flat array for cache-dense binary search.
	nbrs     []link
	nbrSlots []int32
}

// reception is the state of a receiver locked onto one frame. ns-2
// semantics: the first frame whose energy reaches a node locks its
// receiver, even if it is too weak to decode (a "noise lock"); later
// overlapping frames either are captured over (signal/interference >=
// CaptureRatio) or corrupt the locked frame. The receiver never switches
// to a later, stronger frame. Only a decodable lock is ever marked
// corrupted: a noise lock delivers nothing and reports no error, so no
// count or callback could read the flag, and interference is not
// applied to it. Receptions live by value in the channel's slot-indexed
// rx array (tx == nil means idle), so locking and resolving a receiver
// is a dense array write, not a pool round-trip.
type reception struct {
	tx        *transmission
	signal    float64 // received power of the locked frame
	decodable bool    // within TxRange (above the receive threshold)
	corrupted bool    // destroyed by interference; set only when decodable
}

// Channel is the shared medium connecting all nodes.
type Channel struct {
	cfg Config
	eng *sim.Engine
	// idx maps node ids to dense slots; order holds the stations in slot
	// (= ascending id) order. All broadcast iteration follows it so that
	// same-instant event scheduling is deterministic, and per-event code
	// resolves stations by slot instead of hashing a map.
	idx   pkt.NodeIndex
	order []*Station
	// indexed marks the neighbor lists as built (see index.go); from
	// then on AddNode panics.
	indexed bool
	// The interference radius (Config.interferenceRange), the
	// carrier-sense (neighbor-list) range and the decode range, with
	// their squared bounds.
	farReach, csReach, txReach Reach
	build                      buildScratch // buildIndex's storage, kept between builds
	moved                      []mover      // MoveNodes' applied moves, reused per batch
	// Arenas backing every station's neighbor lists (sub-sliced by
	// buildIndex); pointer-free, so invisible to the garbage collector.
	linkArena []link
	slotArena []int32
	// Dense per-slot event state: the number of in-flight transmissions
	// each station senses, whether it is itself transmitting, and the
	// reception it is locked onto (rx[slot].tx == nil when idle). For
	// realistic topologies all three fit in L1/L2, so the neighbor walks
	// touch no scattered heap objects.
	sensed []int32
	busyTx []bool
	rx     []reception
	loss   map[linkKey]float64 // per directed link erasure probability
	down   map[linkKey]bool    // severed directed links (dynamics overrides)
	flight []*transmission
	pool   *pkt.Pool       // packet/frame pool shared by the whole stack
	freeTx []*transmission // recycled transmissions

	// Stats counts channel-level events for tests and experiments.
	Stats ChannelStats

	// obs holds the optional per-station counter families; all-nil (the
	// default) costs one branch per increment site. See SetCounters.
	obs Counters
}

// ChannelStats aggregates medium-level counters.
type ChannelStats struct {
	// Transmissions counts frames put on the air.
	Transmissions uint64
	// Decoded counts successful receptions (per receiver).
	Decoded uint64
	// Collisions counts decodable receptions destroyed by interference
	// (per receiver).
	Collisions uint64
	// Erasures counts decodable receptions lost to link loss or a severed
	// link (per receiver).
	Erasures uint64
	// Captures counts decodable locked receptions that survived an
	// overlapping transmission through the capture effect (per receiver,
	// per surviving overlap).
	Captures uint64
}

// Counters bundles the observability layer's per-station counter
// families, each indexed by PHY station slot (ascending node id — the
// order NodeIDs reports). Tx counts at the transmitter's slot;
// Collisions, Captures and Erasures count at the receiver's. Any field
// may be nil; SetCounters with the zero value detaches everything.
type Counters struct {
	// Tx counts transmissions per transmitting station.
	Tx *obs.CounterVec
	// Collisions counts destroyed decodable receptions per receiver.
	Collisions *obs.CounterVec
	// Captures counts capture-effect survivals per receiver.
	Captures *obs.CounterVec
	// Erasures counts link-loss/severed-link erasures per receiver.
	Erasures *obs.CounterVec
}

// SetCounters attaches per-station counter families (see Counters).
// Counting writes only into the families, so attaching them cannot
// change simulation behaviour.
func (c *Channel) SetCounters(k Counters) { c.obs = k }

type linkKey struct{ a, b pkt.NodeID }

// NewChannel creates an empty channel over the given engine. It panics
// when cfg.TxRange exceeds cfg.CSRange: the neighbor lists end at
// CSRange, and a link beyond it could be routed over but never deliver.
func NewChannel(eng *sim.Engine, cfg Config) *Channel {
	if cfg.TxRange > cfg.CSRange {
		panic(fmt.Sprintf("phy: decode range TxRange %g m exceeds carrier-sense range CSRange %g m", cfg.TxRange, cfg.CSRange))
	}
	return &Channel{
		cfg:      cfg,
		eng:      eng,
		farReach: NewReach(cfg.interferenceRange()),
		csReach:  NewReach(cfg.CSRange),
		txReach:  NewReach(cfg.TxRange),
		loss:     make(map[linkKey]float64),
		down:     make(map[linkKey]bool),
		pool:     pkt.NewPool(),
	}
}

// Reach is a distance limit with bounds on its square: a squared
// distance below lo is certainly within the limit, and one above hi
// certainly beyond it, whatever math.Hypot rounds the distance to. The
// relative margin is far wider than the rounding error of a sum of two
// squares, fused or not; math.Hypot decides the pairs between the
// bounds. The PHY's range tests and the builders' (placement screens and
// gateway trees) all go through a Reach, so they draw the boundary where
// Position.Dist does.
type Reach struct{ lim, lo, hi float64 }

// NewReach returns the Reach of the distance limit lim.
func NewReach(lim float64) Reach {
	return Reach{lim, lim * lim * (1 - 1e-9), lim * lim * (1 + 1e-9)}
}

// Within reports whether p.Dist(q) <= lim, exactly, computing a distance
// only for the rare pair near the limit.
func (r Reach) Within(p, q Position) bool {
	dx, dy := p.X-q.X, p.Y-q.Y
	return r.within(dx, dy, dx*dx+dy*dy)
}

// within reports whether math.Hypot(dx, dy) <= lim, given s = dx²+dy².
// It inlines into the pair loops; only boundary pairs make a call.
func (r Reach) within(dx, dy, s float64) bool {
	return s < r.lo || s <= r.hi && r.hypotWithin(dx, dy)
}

// hypotWithin is within's exact test, kept out of line so within stays
// cheap enough to inline.
//
//go:noinline
func (r Reach) hypotWithin(dx, dy float64) bool { return math.Hypot(dx, dy) <= r.lim }

// Config returns the channel configuration.
func (c *Channel) Config() Config { return c.cfg }

// Pool returns the channel's packet/frame pool. The MAC, traffic, and
// transport layers draw from it so that steady-state forwarding reuses
// storage instead of allocating.
func (c *Channel) Pool() *pkt.Pool { return c.pool }

// getTx recycles (or allocates) a transmission.
func (c *Channel) getTx() *transmission {
	if n := len(c.freeTx); n > 0 {
		tx := c.freeTx[n-1]
		c.freeTx[n-1] = nil
		c.freeTx = c.freeTx[:n-1]
		return tx
	}
	tx := &transmission{}
	tx.finishFn = func() { c.finish(tx) }
	return tx
}

// AddNode registers a station at pos with its MAC-layer radio and returns
// its handle for TransmitFrom. Stations register before the run: adding
// one after the neighbor index is built (by the first TransmitFrom or
// TxNeighbors call) panics, as does adding the same id twice.
func (c *Channel) AddNode(id pkt.NodeID, pos Position, r Radio) *Station {
	if c.indexed {
		panic(fmt.Sprintf("phy: node %v added after the neighbor index was built", id))
	}
	at, ok := c.idx.Add(id)
	if !ok {
		panic(fmt.Sprintf("phy: duplicate node %v", id))
	}
	st := &Station{id: id, pos: pos, radio: r, slot: -1}
	c.order = append(c.order, nil)
	copy(c.order[at+1:], c.order[at:])
	c.order[at] = st
	return st
}

// SetLinkLoss sets the erasure probability for the directed link a->b.
// It models the residual frame error rate of a degraded real-world link.
// The cached neighbor record, if built, is patched in place so the next
// delivery over a->b sees the new probability.
func (c *Channel) SetLinkLoss(a, b pkt.NodeID, p float64) {
	if p < 0 || p > 1 {
		panic("phy: loss probability out of range")
	}
	c.loss[linkKey{a, b}] = p
	if lk := c.cachedLink(a, b); lk != nil {
		lk.loss = p
	}
}

// LinkLoss reports the configured erasure probability for a->b.
func (c *Channel) LinkLoss(a, b pkt.NodeID) float64 { return c.loss[linkKey{a, b}] }

// SetLinkDown severs (down=true) or restores (down=false) the directed
// link a->b. While severed, no frame from a is ever delivered to b,
// regardless of distance or loss settings; carrier sensing is unaffected,
// because the energy still occupies the medium. A downed link therefore
// models a deep fade or obstruction at the receiver; powering a whole
// station off is mac.SetDown's job. The check consumes no randomness, so
// toggling a link perturbs no other node's event stream. The cached
// neighbor record, if built, is patched in place.
func (c *Channel) SetLinkDown(a, b pkt.NodeID, down bool) {
	if down {
		c.down[linkKey{a, b}] = true
	} else {
		delete(c.down, linkKey{a, b})
	}
	if lk := c.cachedLink(a, b); lk != nil {
		lk.down = down
	}
}

// LinkDown reports whether the directed link a->b is currently severed.
func (c *Channel) LinkDown(a, b pkt.NodeID) bool { return c.down[linkKey{a, b}] }

// Position reports a node's position.
func (c *Channel) Position(id pkt.NodeID) Position { return c.station(id).pos }

// InTxRange reports whether b can decode a's transmissions.
func (c *Channel) InTxRange(a, b pkt.NodeID) bool {
	return c.txReach.Within(c.station(a).pos, c.station(b).pos)
}

// AirTime exposes the frame air time for the channel's bit rate.
func (c *Channel) AirTime(bytes int) sim.Time { return c.cfg.AirTime(bytes) }

// TransmitFrom puts a frame on the air from the given station. The caller
// (MAC) is responsible for having respected CSMA rules; the channel
// faithfully models the consequences either way (collisions at
// receivers). The returned time is when the transmission ends.
//
// This is the PHY hot path: no map lookups and no neighbor searches per
// event. The walk over the transmitter's neighbor list (CSRange) raises
// carrier sense, applies the new energy at its cached power to receivers
// already locked onto a decodable frame, and locks idle ones. Beyond
// CSRange the frame can only corrupt a decodable lock within the
// interference radius, so the far ring is reached through the older
// flights' receivers (rcv, farHit); the older flights then reach the
// newly and decodably locked receivers flight by flight (interfere).
// That split changes no outcome: a receiver takes at most one hit per
// transmission, its state depends only on its own geometry and the
// flights, and the walk's CarrierBusy(true) callbacks (the MAC freezing
// its backoff) read neither the receptions nor Stats. Noise locks skip
// interference altogether (see reception).
func (c *Channel) TransmitFrom(sn *Station, f *pkt.Frame) sim.Time {
	if !c.indexed {
		c.buildIndex()
	}
	if c.busyTx[sn.slot] {
		panic(fmt.Sprintf("phy: node %v already transmitting", sn.id))
	}
	now := c.eng.Now()
	dur := c.AirTime(f.Bytes())
	tx := c.getTx()
	tx.srcn, tx.frame, tx.start, tx.end = sn, f, now, now+dur
	tx.flightIdx = len(c.flight)
	c.flight = append(c.flight, tx)
	c.Stats.Transmissions++
	if c.obs.Tx != nil {
		c.obs.Tx.Inc(int(sn.slot))
	}
	c.busyTx[sn.slot] = true
	// The channel holds its own reference to a data frame's payload for
	// the duration of the flight: the transmitter may drop the packet
	// mid-air (retry limit, a halted node flushing its queues) and the
	// frame must not dangle into recycled pool storage.
	if f.Payload != nil {
		f.Payload.Retain()
	}

	// Raise carrier sense at every neighbor; lock idle receivers onto the
	// new frame; apply capture at already-locked receivers. Neighbor
	// lists ascend by slot (= id), preserving the deterministic iteration
	// order of the old all-stations loop.
	cr := c.cfg.CaptureRatio
	rcv := tx.rcv[:0]
	nbrs := sn.nbrs
	for i := range nbrs {
		lk := &nbrs[i]
		slot := lk.slot
		c.sensed[slot]++
		if c.sensed[slot] == 1 && !c.busyTx[slot] {
			if r := c.order[slot].radio; r != nil {
				r.CarrierBusy(true)
			}
		}
		switch {
		case c.busyTx[slot]:
			// Half-duplex: a transmitting node ignores arrivals.
		case c.rx[slot].tx != nil:
			// Locked on another frame: the new energy is interference.
			if rx := &c.rx[slot]; rx.decodable && !rx.corrupted {
				c.hit(slot, rx.signal < cr*lk.power)
			}
		default:
			// Idle receiver locks onto the first frame it senses, even
			// one too weak to decode (noise lock). For a decodable lock,
			// energy already in flight from other transmitters counts as
			// interference, applied by interfere below.
			c.rx[slot] = reception{tx: tx, signal: lk.power, decodable: lk.inTx}
			if lk.inTx {
				rcv = append(rcv, slot)
			}
		}
	}
	tx.rcv = rcv
	if len(c.flight) > 1 {
		// The far ring: decodable locks on older flights beyond CSRange.
		pos := c.build.pos
		from := pos[sn.slot]
		for _, other := range c.flight[:len(c.flight)-1] {
			for _, slot := range other.rcv {
				if rx := &c.rx[slot]; rx.tx != other || rx.corrupted || c.busyTx[slot] {
					continue
				}
				dx, dy := from.X-pos[slot].X, from.Y-pos[slot].Y
				if s := dx*dx + dy*dy; s >= c.csReach.lo && s <= c.farReach.hi {
					c.farHit(dx, dy, s, slot)
				}
			}
		}
		if len(rcv) > 0 {
			c.interfere(rcv)
		}
	}

	c.eng.ScheduleFixed(dur, tx.finishFn)
	return tx.end
}

// hit counts interference at the decodable, intact reception at slot: a
// collision, which destroys the frame, or a capture (ns-2's CPThresh:
// the frame is CaptureRatio stronger and rides it out).
func (c *Channel) hit(slot int32, collide bool) {
	if collide {
		c.rx[slot].corrupted = true
		c.Stats.Collisions++
		if c.obs.Collisions != nil {
			c.obs.Collisions.Inc(int(slot))
		}
		return
	}
	c.Stats.Captures++
	if c.obs.Captures != nil {
		c.obs.Captures.Inc(int(slot))
	}
}

// farHit applies interference from offset (dx, dy), s = dx²+dy², to the
// decodable, intact reception at slot, for a pair no list holds. Callers
// first drop, inline, the pairs s certainly places within CSRange or
// beyond the interference radius (see Reach). The pair then collides when
// rx.signal < CaptureRatio·power(Hypot(dx, dy)), the power a list would
// cache; under the d⁻⁴ law (1 <= s < 2⁵⁰⁰) that power is 1/s² within a
// few ulps, so rx.signal·s² settles every pair outside a 1e-9 band
// around the capture ratio with no square root or division.
func (c *Channel) farHit(dx, dy, s float64, slot int32) {
	if c.csReach.within(dx, dy, s) || !c.farReach.within(dx, dy, s) {
		return
	}
	signal, cr := c.rx[slot].signal, c.cfg.CaptureRatio
	if t := signal * s * s; c.cfg.PathLossExp == 4 && 1 <= s && s < 0x1p500 {
		if t < cr*(1-1e-9) || t > cr*(1+1e-9) {
			c.hit(slot, t < cr)
			return
		}
	}
	c.hit(slot, signal < cr*c.cfg.power(math.Hypot(dx, dy)))
}

// interfere applies the energy of every flight already on the air to the
// receivers the newest flight (the last in c.flight) just locked onto a
// decodable frame, given by slot in ascending order. Each older flight
// is taken in c.flight order and its source's slot-sorted neighbor list
// merge-joined against the locked slots, so the neighbor records are
// read in order and never searched; a locked slot missing from the list
// is beyond the source's CSRange and settled by farHit. A locked frame
// is corrupted by the first flight it is not CaptureRatio stronger than,
// and rides out (is captured over) each flight before that; once
// corrupted, later flights cannot touch it.
//
// This visits the flights of each receiver in the order a per-receiver
// loop over c.flight would, stopping at the same flight, so Collisions
// and Captures come out the same although both depend on that order.
// The interferer's power is read from its source's record of the
// receiver rather than the receiver's record of the source; the two are
// equal to the bit, because distance is symmetric and buildIndex writes
// both records of a pair from one computation.
func (c *Channel) interfere(locked []int32) {
	cr := c.cfg.CaptureRatio
	pos := c.build.pos
	for _, other := range c.flight[:len(c.flight)-1] {
		on := other.srcn
		from := pos[on.slot]
		keys := on.nbrSlots
		k := 0
		for _, slot := range locked {
			for k < len(keys) && keys[k] < slot {
				k++
			}
			switch rx := &c.rx[slot]; {
			case rx.corrupted:
			case k < len(keys) && keys[k] == slot:
				c.hit(slot, rx.signal < cr*on.nbrs[k].power)
			default:
				dx, dy := from.X-pos[slot].X, from.Y-pos[slot].Y
				if s := dx*dx + dy*dy; s >= c.csReach.lo && s <= c.farReach.hi {
					c.farHit(dx, dy, s, slot)
				}
			}
		}
	}
}

// finish completes a transmission: lowers carrier sense, resolves frame
// delivery at every receiver that had locked onto it. Like TransmitFrom
// it walks only the transmitter's neighbor list — a receiver can only
// have locked within CS range — and reads the severed flag and erasure
// probability from the cached link record instead of the maps.
func (c *Channel) finish(tx *transmission) {
	sn := tx.srcn
	c.busyTx[sn.slot] = false

	nbrs := sn.nbrs
	for i := range nbrs {
		lk := &nbrs[i]
		slot := lk.slot
		c.sensed[slot]--
		if c.sensed[slot] == 0 && !c.busyTx[slot] {
			if r := c.order[slot].radio; r != nil {
				r.CarrierBusy(false)
			}
		}
		if rx := &c.rx[slot]; rx.tx == tx {
			rx.tx = nil
			if rx.corrupted {
				if r := c.order[slot].radio; r != nil {
					r.ReceiveError()
				}
				continue
			}
			if !rx.decodable {
				continue
			}
			// A severed link erases deterministically (before the loss
			// draw, so it leaves the RNG stream untouched).
			if lk.down {
				c.Stats.Erasures++
				if c.obs.Erasures != nil {
					c.obs.Erasures.Inc(int(slot))
				}
				continue
			}
			// Apply per-link erasures (testbed link quality model).
			if p := lk.loss; p > 0 && c.eng.Chance(p) {
				c.Stats.Erasures++
				if c.obs.Erasures != nil {
					c.obs.Erasures.Inc(int(slot))
				}
				continue
			}
			c.deliver(c.order[slot], tx.frame)
		}
	}

	// Swap-remove tx from the in-flight list, then recycle the frame and
	// the transmission: every receiver has been served synchronously
	// above, so nothing references either beyond this point. The
	// flight's payload reference (taken in TransmitFrom) is dropped with
	// it.
	last := len(c.flight) - 1
	if i := tx.flightIdx; i != last {
		moved := c.flight[last]
		c.flight[i] = moved
		moved.flightIdx = i
	}
	c.flight[last] = nil
	c.flight = c.flight[:last]
	if p := tx.frame.Payload; p != nil {
		p.Release()
	}
	c.pool.PutFrame(tx.frame)
	tx.frame = nil
	tx.srcn = nil
	c.freeTx = append(c.freeTx, tx)
}

func (c *Channel) deliver(n *Station, f *pkt.Frame) {
	c.Stats.Decoded++
	if n.radio == nil {
		return
	}
	if f.TxDst == n.id || f.TxDst == pkt.Broadcast {
		n.radio.Receive(f)
	}
	n.radio.Overhear(f, pkt.CaptureInfo{At: c.eng.Now(), Listener: n.id, OnAir: true})
}

// NodeIDs returns all registered node ids in ascending order.
func (c *Channel) NodeIDs() []pkt.NodeID {
	return append([]pkt.NodeID(nil), c.idx.IDs()...)
}
