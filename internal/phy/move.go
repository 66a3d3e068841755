// Position updates for moving stations.
//
// MoveNodes applies one batch of moves — a mobility tick's — and then
// rebuilds the neighbor index once through buildIndex, whose storage is
// kept between builds, so a steady-state tick allocates nothing. One
// rebuild computes each pair's distance once, where patching the lists
// mover by mover would recompute every pair of movers twice.
//
// Determinism rules (the golden campaigns pin these):
//   - Moves apply in the order given (mover order). The mobility engine
//     gives them in ascending node id order.
//   - The result follows the sequential decode-range rule: at mover a's
//     turn, a's decode-range membership is compared between its old and
//     new positions, against every other station where it stands at that
//     moment (earlier movers at their new positions, later ones at their
//     old). The batch reports a change if any pair flips, exactly as
//     applying the moves one at a time would.
//   - A station mid-transmission must not move (the in-flight geometry is
//     baked into every receiver's lock); callers check Transmitting and
//     defer the move to the next tick, which depends only on sim state
//     and is therefore reproducible.
//   - After the rebuild, each mover's receiver state is reconciled in
//     mover order: its carrier-sense count is recomputed against the
//     in-flight set at its new position, a locked reception survives only
//     while the locked transmitter remains within CS range, and no lock is
//     gained mid-flight (the preamble was missed). A CarrierBusy callback
//     fires only where a mover's sensed state flipped — the callbacks
//     sequential moves would make, in the same order.
//   - Moves never touch the engine RNG, so a move perturbs no other
//     node's event stream.
package phy

import (
	"fmt"

	"ezflow/internal/pkt"
)

// Move is one station's new position in a MoveNodes batch.
type Move struct {
	ID  pkt.NodeID
	Pos Position
}

// mover is one move of a batch that changed a station's position.
type mover struct {
	st  *Station
	pos Position
}

// Transmitting reports whether the node currently has a frame on the
// air. The mobility engine consults it before MoveNodes and defers the
// move by one tick for stations caught mid-frame.
func (c *Channel) Transmitting(id pkt.NodeID) bool {
	if !c.indexed {
		return false
	}
	st := c.station(id)
	return st != nil && c.busyTx[st.slot]
}

// MoveNodes relocates stations in the order given, rebuilds the neighbor
// index once, and reconciles each mover's carrier-sense and lock state
// (see the package comment for the determinism rules). It reports
// whether decode-range (TxRange) link membership changed at any mover's
// turn — the signal the mobility engine uses to trigger route repair.
// Before the first transmission has built the index, it only adopts the
// positions; the build reads them.
//
// Every station must be registered and none may be transmitting (see
// Transmitting): moving a transmitter mid-frame would falsify the
// geometry already baked into its listeners' locks. A batch that breaks
// either rule panics before it moves anything.
func (c *Channel) MoveNodes(moves []Move) (changed bool) {
	moved := c.moved[:0]
	for _, mv := range moves {
		st := c.station(mv.ID)
		if st == nil {
			panic(fmt.Sprintf("phy: MoveNodes for unknown node %v", mv.ID))
		}
		if c.indexed && c.busyTx[st.slot] {
			panic(fmt.Sprintf("phy: MoveNodes of node %v while transmitting", mv.ID))
		}
		moved = append(moved, mover{st, mv.Pos})
	}
	k := 0
	for _, m := range moved {
		if m.pos == m.st.pos {
			continue // a paused mover: nothing to apply or reconcile
		}
		changed = changed || c.decodeFlip(m.st, m.pos)
		m.st.pos = m.pos
		moved[k] = m
		k++
	}
	moved = moved[:k]
	c.moved = moved
	if k == 0 || !c.indexed {
		return changed
	}
	c.buildIndex()
	for _, m := range moved {
		c.moveFlightState(m.st, m.pos)
	}
	return changed
}

// decodeFlip reports whether moving st to p flips its decode-range
// membership against any other station where that station stands now.
// Squared distances settle every pair clear of the range boundary (see
// reach); math.Hypot, which InTxRange uses, decides the others.
func (c *Channel) decodeFlip(st *Station, p Position) bool {
	from := st.pos
	for _, o := range c.order {
		if o == st {
			continue
		}
		q := o.pos
		ax, ay := from.X-q.X, from.Y-q.Y
		bx, by := p.X-q.X, p.Y-q.Y
		if c.txReach.within(ax, ay, ax*ax+ay*ay) != c.txReach.within(bx, by, bx*bx+by*by) {
			return true
		}
	}
	return false
}

// moveFlightState reconciles a mover's receiver state with the in-flight
// transmissions at pos, its position after this move: the carrier-sense
// count is recomputed (finish will decrement once per flight whose
// transmitter now lists the mover in CS range, so the count must match
// that set exactly), a locked reception survives only while its
// transmitter is still within CS range, and no new lock is acquired
// (missed preamble). Flight sources never move, so reading the flights
// after the whole batch gives what a reconciliation at the mover's own
// turn would.
func (c *Channel) moveFlightState(st *Station, pos Position) {
	wasBusy := c.sensed[st.slot] > 0
	var n int32
	for _, f := range c.flight {
		if f.srcn != st && pos.Dist(f.srcn.pos) <= c.cfg.CSRange {
			n++
		}
	}
	c.sensed[st.slot] = n
	if rx := &c.rx[st.slot]; rx.tx != nil {
		if pos.Dist(rx.tx.srcn.pos) > c.cfg.CSRange {
			// The locked energy faded out mid-frame: the reception is
			// silently aborted. The transmitter's finish no longer visits
			// this station (it left the CS list), so clearing here is the
			// only bookkeeping.
			*rx = reception{}
		}
	}
	nowBusy := n > 0
	if nowBusy != wasBusy && st.radio != nil {
		st.radio.CarrierBusy(nowBusy)
	}
}
