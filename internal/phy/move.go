// Incremental neighbor-index maintenance for moving stations.
//
// MoveNode relocates one station without rebuilding the index: it
// re-buckets the station in the retained spatial grid, recomputes the
// station's own neighbor list from a grid query, and patches the
// reverse direction at exactly the neighbors whose interference-radius
// membership or cached geometry changed. A move costs one
// squared-distance test per grid candidate (math.Hypot only for those
// that pass it) plus O(degree) reverse-record patches, each addressed
// through the twin index instead of a search — against the O(N·degree)
// full rebuild. Inserting or removing a reverse record also re-points
// the twins of the records it shifts, O(degree) more; membership changes
// are rare next to kept neighbors.
//
// Storage discipline: buildIndex and buildTwins pack every list into
// shared arenas, so no list can grow or shrink in place without
// trampling the next station's records. The first mutation that resizes
// a station's list detaches it (copy-on-write) into station-owned slices
// with amortized spare capacity; once the capacities of the stations
// along a node's path have warmed up, steady-state moves allocate
// nothing.
//
// Determinism rules (the golden campaigns pin these):
//   - MoveNode never touches the engine RNG, so a move perturbs no other
//     node's event stream.
//   - A station mid-transmission must not move (the in-flight geometry is
//     baked into every receiver's lock); callers check Transmitting and
//     defer the move to the next tick, which depends only on sim state
//     and is therefore reproducible.
//   - A moving receiver's carrier-sense count is recomputed against the
//     in-flight set at the new position; its locked reception survives
//     only while the locked transmitter remains within CS range, and a
//     mover never acquires a new lock mid-flight (the preamble was
//     missed). Both rules are pure functions of sim state.
package phy

import (
	"fmt"
	"math/bits"
	"slices"

	"ezflow/internal/pkt"
)

// Transmitting reports whether the node currently has a frame on the
// air. The mobility engine consults it before MoveNode and defers the
// move by one tick for stations caught mid-frame.
func (c *Channel) Transmitting(id pkt.NodeID) bool {
	if !c.indexed {
		return false
	}
	st := c.station(id)
	return st != nil && c.busyTx[st.slot]
}

// MoveNode relocates a station and incrementally patches the neighbor
// index: the spatial grid is re-bucketed and per-link cached records are
// updated only where interference-radius membership or geometry actually
// changed. It reports whether decode-range (TxRange) link membership
// changed in either direction — the signal the mobility engine uses to
// trigger route repair. The engine RNG is never consulted.
//
// The station must not be transmitting (see Transmitting); moving it
// mid-frame would falsify the geometry already baked into its listeners'
// locks, so MoveNode panics.
func (c *Channel) MoveNode(id pkt.NodeID, pos Position) bool {
	st := c.station(id)
	if st == nil {
		panic(fmt.Sprintf("phy: MoveNode for unknown node %v", id))
	}
	if !c.indexed {
		// Nothing is cached yet: adopt the position and let the first
		// transmission build the index from it. Report a (conservative)
		// membership change only if decode-range adjacency differs.
		changed := false
		for _, o := range c.order {
			if o == st {
				continue
			}
			wasIn := o.pos.Dist(st.pos) <= c.cfg.TxRange
			isIn := o.pos.Dist(pos) <= c.cfg.TxRange
			if wasIn != isIn {
				changed = true
				break
			}
		}
		st.pos = pos
		return changed
	}
	if c.busyTx[st.slot] {
		panic(fmt.Sprintf("phy: MoveNode of node %v while transmitting", id))
	}
	if !c.twinned {
		c.buildTwins()
	}
	old := st.pos
	if pos == old {
		return false
	}
	st.pos = pos
	c.grid.Move(st.slot, old, pos)

	// Recompute the mover's own neighbor list from the grid at the new
	// position, into the reusable staging buffer, ascending by slot.
	r := c.radius
	cand := c.grid.Near(pos, c.scratch[:0])
	c.scratch = cand
	mutated := len(c.loss) > 0 || len(c.down) > 0
	newL := c.moveBuf[:0]
	for _, j := range c.ascending(cand) {
		if j == st.slot {
			continue
		}
		o := c.order[j]
		if c.beyond(pos, o.pos) {
			continue
		}
		d := pos.Dist(o.pos)
		if d > r {
			continue
		}
		l := link{
			slot:  j,
			inCS:  d <= c.cfg.CSRange,
			inTx:  d <= c.cfg.TxRange,
			power: c.cfg.power(d),
		}
		if mutated {
			key := linkKey{st.id, o.id}
			l.down, l.loss = c.down[key], c.loss[key]
		}
		newL = append(newL, l)
	}
	c.moveBuf = newL
	newT := slices.Grow(c.twinBuf[:0], len(newL))[:len(newL)]
	c.twinBuf = newT

	// Merge-diff the old and new lists (both ascending by slot) and patch
	// the reverse direction at each affected neighbor. Range predicates
	// and received power are symmetric, so the forward record carries
	// everything the reverse one needs except the per-direction loss/down
	// state, which is read from the authoritative maps on insert. Each
	// neighbor's list changes at most once per move, and only at its
	// record toward the mover, so the old twins stay valid throughout.
	changed := false
	oldL, oldT := st.nbrs, st.nbrTwin
	i, j := 0, 0
	for i < len(oldL) || j < len(newL) {
		switch {
		case j >= len(newL) || (i < len(oldL) && oldL[i].slot < newL[j].slot):
			// Vanished neighbor: drop the reverse record.
			if oldL[i].inTx {
				changed = true
			}
			c.removeNeighborAt(c.order[oldL[i].slot], oldT[i])
			i++
		case i >= len(oldL) || newL[j].slot < oldL[i].slot:
			// Appeared neighbor: insert the reverse record.
			nl := &newL[j]
			if nl.inTx {
				changed = true
			}
			b := c.order[nl.slot]
			rev := link{slot: st.slot, inCS: nl.inCS, inTx: nl.inTx, power: nl.power}
			if mutated {
				key := linkKey{b.id, st.id}
				rev.down, rev.loss = c.down[key], c.loss[key]
			}
			newT[j] = c.insertNeighbor(b, rev, int32(j))
			j++
		default:
			// Kept neighbor: refresh geometry in place, both directions,
			// and re-point its twin at the mover's new list position.
			nl, ol := &newL[j], &oldL[i]
			if nl.inTx != ol.inTx {
				changed = true
			}
			b := c.order[nl.slot]
			t := oldT[i]
			newT[j] = t
			b.nbrTwin[t] = int32(j)
			blk := &b.nbrs[t]
			if blk.inCS != nl.inCS {
				blk.inCS, blk.inTx, blk.power = nl.inCS, nl.inTx, nl.power
				b.ensureOwned(len(b.nbrs))
				rebuildCS(b)
			} else {
				blk.inCS, blk.inTx, blk.power = nl.inCS, nl.inTx, nl.power
			}
			i++
			j++
		}
	}

	// Adopt the new forward list into station-owned storage.
	st.ensureOwned(len(newL))
	st.nbrs = append(st.nbrs[:0], newL...)
	st.nbrTwin = append(st.nbrTwin[:0], newT...)
	st.nbrSlots = st.nbrSlots[:0]
	for k := range newL {
		st.nbrSlots = append(st.nbrSlots, newL[k].slot)
	}
	rebuildCS(st)

	c.moveFlightState(st)
	return changed
}

// ascending puts the grid candidates cand into ascending slot order, in
// place, without sorting: it marks each slot in a reused bitset and reads
// the set bits back in word order, O(len + words spanned). The grid's
// cells are disjoint, so no slot appears twice.
func (c *Channel) ascending(cand []int32) []int32 {
	if len(cand) == 0 {
		return cand
	}
	if need := (len(c.order) + 63) / 64; len(c.candBits) < need {
		c.candBits = make([]uint64, need)
	}
	set := c.candBits
	lo, hi := len(set), 0
	for _, j := range cand {
		w := int(j >> 6)
		set[w] |= 1 << (j & 63)
		lo, hi = min(lo, w), max(hi, w)
	}
	out := cand[:0]
	for w := lo; w <= hi; w++ {
		for b := set[w]; b != 0; b &= b - 1 {
			out = append(out, int32(w<<6+bits.TrailingZeros64(b)))
		}
		set[w] = 0
	}
	return out
}

// moveFlightState reconciles the mover's receiver state with the
// in-flight transmissions at its new position: the carrier-sense count
// is recomputed (finish will decrement once per flight whose transmitter
// now lists the mover in CS range, so the count must match that set
// exactly), a locked reception survives only while its transmitter is
// still within CS range, and no new lock is acquired (missed preamble).
func (c *Channel) moveFlightState(st *Station) {
	wasBusy := c.sensed[st.slot] > 0
	var n int32
	for _, f := range c.flight {
		if f.srcn != st && st.pos.Dist(f.srcn.pos) <= c.cfg.CSRange {
			n++
		}
	}
	c.sensed[st.slot] = n
	if rx := &c.rx[st.slot]; rx.tx != nil {
		if st.pos.Dist(rx.tx.srcn.pos) > c.cfg.CSRange {
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

// ensureOwned detaches the station's neighbor storage from the shared
// build arenas into station-owned slices with room for at least capHint
// links (plus amortized headroom), so incremental moves can resize the
// lists without corrupting the neighbors packed after them. A no-op once
// the station is detached with sufficient capacity. Only MoveNode calls
// it, after buildTwins, so the twins are copied along.
func (s *Station) ensureOwned(capHint int) {
	if s.owned && cap(s.nbrs) >= capHint && cap(s.csNbrs) >= capHint {
		return
	}
	// The copy keeps the current records, so a list about to shrink (a
	// long jump) needs room for them too.
	cp := max(capHint, len(s.nbrs))
	cp += cp/2 + 8
	nbrs := make([]link, len(s.nbrs), cp)
	copy(nbrs, s.nbrs)
	slots := make([]int32, len(s.nbrSlots), cp)
	copy(slots, s.nbrSlots)
	cs := make([]int32, len(s.csNbrs), cp)
	copy(cs, s.csNbrs)
	twins := make([]int32, len(s.nbrTwin), cp)
	copy(twins, s.nbrTwin)
	s.nbrs, s.nbrSlots, s.csNbrs, s.nbrTwin = nbrs, slots, cs, twins
	s.owned = true
}

// rebuildCS recomputes the station's carrier-sense subsequence from its
// neighbor list. The caller must have ensured owned storage with
// capacity >= len(nbrs).
func rebuildCS(s *Station) {
	cs := s.csNbrs[:0]
	for i := range s.nbrs {
		if s.nbrs[i].inCS {
			cs = append(cs, int32(i))
		}
	}
	s.csNbrs = cs
}

// insertNeighbor splices a link record, whose reverse record sits at
// position twin, into b's lists at its ascending slot position, detaching
// b from the arenas if needed, and returns that position. The records it
// shifts up have their twins re-pointed.
func (c *Channel) insertNeighbor(b *Station, lk link, twin int32) int32 {
	n := len(b.nbrs)
	b.ensureOwned(n + 1)
	pos := lowerBound32(b.nbrSlots, lk.slot)
	b.nbrs = b.nbrs[:n+1]
	copy(b.nbrs[pos+1:], b.nbrs[pos:n])
	b.nbrs[pos] = lk
	b.nbrSlots = b.nbrSlots[:n+1]
	copy(b.nbrSlots[pos+1:], b.nbrSlots[pos:n])
	b.nbrSlots[pos] = lk.slot
	b.nbrTwin = b.nbrTwin[:n+1]
	copy(b.nbrTwin[pos+1:], b.nbrTwin[pos:n])
	b.nbrTwin[pos] = twin
	c.repointTwins(b, pos+1)
	rebuildCS(b)
	return int32(pos)
}

// removeNeighborAt deletes the record at position k from b's lists,
// detaching b from the arenas if needed. The records it shifts down have
// their twins re-pointed.
func (c *Channel) removeNeighborAt(b *Station, k int32) {
	n := len(b.nbrs)
	b.ensureOwned(n)
	copy(b.nbrs[k:], b.nbrs[k+1:])
	b.nbrs = b.nbrs[:n-1]
	copy(b.nbrSlots[k:], b.nbrSlots[k+1:])
	b.nbrSlots = b.nbrSlots[:n-1]
	copy(b.nbrTwin[k:], b.nbrTwin[k+1:])
	b.nbrTwin = b.nbrTwin[:n-1]
	c.repointTwins(b, int(k))
	rebuildCS(b)
}

// repointTwins tells the peer of each of b's records from position from
// on where that record now sits in b's list.
func (c *Channel) repointTwins(b *Station, from int) {
	for k := from; k < len(b.nbrs); k++ {
		c.order[b.nbrs[k].slot].nbrTwin[b.nbrTwin[k]] = int32(k)
	}
}

// VerifyIndex checks the incrementally-patched neighbor index against a
// from-scratch recomputation of the same geometry and link state,
// returning a descriptive error on the first divergence (nil when the
// index is not built: there is nothing to verify). It is O(N²) and
// allocates freely — a correctness oracle for tests and stress
// harnesses, not a production path.
func (c *Channel) VerifyIndex() error {
	if !c.indexed {
		return nil
	}
	r := c.radius
	for si, st := range c.order {
		if st.slot != int32(si) {
			return fmt.Errorf("station %v: slot %d, want %d", st.id, st.slot, si)
		}
		if len(st.nbrs) != len(st.nbrSlots) {
			return fmt.Errorf("station %v: %d links vs %d slot keys", st.id, len(st.nbrs), len(st.nbrSlots))
		}
		// Expected neighbor list, straight from geometry and the maps.
		var want []link
		for oi, o := range c.order {
			if oi == si {
				continue
			}
			d := st.pos.Dist(o.pos)
			if d > r {
				continue
			}
			key := linkKey{st.id, o.id}
			want = append(want, link{
				slot:  int32(oi),
				inCS:  d <= c.cfg.CSRange,
				inTx:  d <= c.cfg.TxRange,
				down:  c.down[key],
				power: c.cfg.power(d),
				loss:  c.loss[key],
			})
		}
		if len(want) != len(st.nbrs) {
			return fmt.Errorf("station %v: %d links, want %d", st.id, len(st.nbrs), len(want))
		}
		var cs []int32
		for k := range want {
			if got := st.nbrs[k]; got != want[k] {
				return fmt.Errorf("station %v link %d: got %+v, want %+v", st.id, k, got, want[k])
			}
			if st.nbrSlots[k] != want[k].slot {
				return fmt.Errorf("station %v slot key %d: got %d, want %d", st.id, k, st.nbrSlots[k], want[k].slot)
			}
			if want[k].inCS {
				cs = append(cs, int32(k))
			}
		}
		if !slices.Equal(cs, st.csNbrs) {
			return fmt.Errorf("station %v: csNbrs %v, want %v", st.id, st.csNbrs, cs)
		}
		// Every twin must point back at this station's slot.
		if c.twinned {
			if len(st.nbrTwin) != len(st.nbrs) {
				return fmt.Errorf("station %v: %d twins for %d links", st.id, len(st.nbrTwin), len(st.nbrs))
			}
			for k, t := range st.nbrTwin {
				peer := c.order[st.nbrs[k].slot]
				if t < 0 || int(t) >= len(peer.nbrSlots) || peer.nbrSlots[t] != st.slot {
					return fmt.Errorf("station %v link %d: twin %d does not point back from %v", st.id, k, t, peer.id)
				}
			}
		}
		// The grid must still find the station from its own position.
		found := slices.Contains(c.grid.Near(st.pos, nil), st.slot)
		if !found {
			return fmt.Errorf("station %v: not reachable in its grid neighborhood", st.id)
		}
	}
	return nil
}
