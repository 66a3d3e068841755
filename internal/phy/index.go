// The PHY neighbor index: precomputed per-station neighbor lists that
// turn every Transmit/finish broadcast from an O(N) all-stations walk
// with per-pair math.Hypot/math.Pow and map lookups into an O(degree)
// walk over flat, cache-resident link records.
//
// Stations register before the run, and geometry then changes only
// through explicit position updates (Channel.MoveNodes, driven by the
// mobility subsystem), so distances, received powers, and the
// in-Tx-range predicate are computed when the first transmission (or
// TxNeighbors call) builds the index and again once per batch of moves,
// never per event. The other mutable per-link state — erasure
// probability and severed flags, which the dynamics subsystem toggles
// mid-run — is folded into the same records and patched in place by
// SetLinkLoss/SetLinkDown, so the hot path never consults the loss/down
// maps.
//
// Correctness bound: a neighbor list holds every station within CSRange,
// the reach of carrier sense, locking and delivery. Interference reaches
// farther: a lock at signal power S is corrupted by an interferer of
// power p when S < CaptureRatio·p, and the weakest lockable signal is
// power(CSRange), so nothing is corrupted beyond the interference radius
//
//	CSRange · max(1, CaptureRatio)^(1/PathLossExp)
//
// (≈978 m for the default 550 m / 10 dB / d⁻⁴ model). The far ring
// between the two radii matters only at a decodable lock; each flight
// lists its own (transmission.rcv), and the channel settles those pairs
// from the built positions as buildIndex would. So the walk visits the
// exact subsequence of the old id-ordered all-stations loop that had any
// effect, in order, and consumes the engine's RNG stream identically (the
// byte-identity pin the golden campaign tests enforce).
package phy

import (
	"fmt"
	"math"
	"slices"

	"ezflow/internal/pkt"
)

// link is the cached record of one directed pair within CS range: the
// constant geometry (received power, decode-range predicate) plus the
// mutable dynamics state (severed flag, erasure probability) of the link
// from the owning station to the station at slot. It is deliberately
// pointer-free — the
// whole index is backed by shared arenas the garbage collector never has
// to scan; the rare transitions that need the neighbor's radio resolve
// it through Channel.order.
type link struct {
	slot  int32 // the neighbor's dense slot; neighbor lists are sorted by it
	inTx  bool  // within decode range
	down  bool  // severed by dynamics (SetLinkDown)
	power float64
	loss  float64 // erasure probability (SetLinkLoss)
}

// interferenceRange is the distance beyond which a transmission can
// corrupt no reception (see the package comment for the derivation). The
// tiny relative margin guards the float boundary of the closed-form
// inversion; a degenerate path-loss exponent (<= 0) makes received power
// distance-independent, so every station interferes with every other.
func (c Config) interferenceRange() float64 {
	if c.PathLossExp <= 0 {
		return math.Inf(1)
	}
	cr := c.CaptureRatio
	if cr < 1 {
		cr = 1
	}
	return c.CSRange * math.Pow(cr, 1/c.PathLossExp) * (1 + 1e-9)
}

// buildScratch holds buildIndex's working storage between builds, so a
// rebuild over unchanged slots (every mobility tick's) allocates nothing
// once the buffers have grown to the topology.
type buildScratch struct {
	grid  SpatialGrid
	pos   []Position
	cand  []int32
	upper []int32 // pass 1's pairs: each pair's upper slot, grouped by lower slot
	slots []buildSlot
}

// buildSlot is one station's bookkeeping during a build.
type buildSlot struct {
	upperEnd int32 // the end of its pass-1 pairs in upper
	n        int32 // its records: counted, then written
	base     int32 // the offset of its list in the arenas
}

// buildIndex computes every station's neighbor list via a spatial hash,
// O(N·degree) for spatially bounded deployments. The first build, made
// lazily by the first transmission or TxNeighbors call, assigns the
// dense slots in id order and allocates the per-slot event state; after
// it no station joins (AddNode panics), so MoveNodes' rebuild after each
// batch of moves keeps the slots, and the sensed counts, busy flags,
// locked receptions and the flights' rcv slots stay in place. It reads
// the loss/down maps so records are coherent with mutations applied
// before the build.
//
// The lists are built in two passes and never sorted. Pass 1 finds every
// in-range pair once, from its lower slot, and keeps its upper slot;
// counting each pair at both ends gives every list's exact length, so
// the arenas are sized once. Its range tests read squared distances
// (see Reach), so it computes a distance only for the rare pair near a
// range boundary. Pass 2 visits the stations y in ascending slot order,
// computes each of y's pass-1 pairs' distance — once per pair — and
// appends y to the list of each of its neighbors, which leaves every
// list ascending by slot. Distance is symmetric to the bit, so both
// directed records of a pair carry the values a per-direction
// computation would give.
func (c *Channel) buildIndex() {
	n := len(c.order)
	b := &c.build
	if !c.indexed {
		// The first build: AddNode refuses stations from here on, so the
		// slots and the dense event state are fixed for the run.
		for i, st := range c.order {
			st.slot = int32(i)
		}
		c.sensed, c.busyTx, c.rx = make([]int32, n), make([]bool, n), make([]reception, n)
	}
	pos := slices.Grow(b.pos[:0], n)[:n]
	for i, st := range c.order {
		pos[i] = st.pos
	}
	b.pos = pos

	g := &b.grid
	g.reset(pos, c.csReach.lim)

	// Pass 1: the in-range pairs (i, j > i), grouped by i; slots[i].n
	// counts i's neighbors.
	upper := slices.Grow(b.upper[:0], g.candidatePairs())
	slots := slices.Grow(b.slots[:0], n)[:n]
	clear(slots)
	cand := b.cand
	for i, p := range pos {
		cand = g.nearAbove(p, int32(i), cand[:0])
		si := &slots[i]
		for _, j := range cand {
			q := pos[j]
			dx, dy := p.X-q.X, p.Y-q.Y
			s := dx*dx + dy*dy
			if !c.csReach.within(dx, dy, s) {
				continue
			}
			upper = append(upper, j)
			si.n++
			slots[j].n++
		}
		si.upperEnd = int32(len(upper))
	}
	b.cand, b.upper, b.slots = cand, upper, slots

	// All per-station lists live in two shared arenas, sized exactly and
	// sub-sliced per station: one allocation each instead of two per
	// station, contiguous neighbor records, and — links being
	// pointer-free — nothing for the garbage collector to scan or
	// write-barrier.
	var total int32
	for i := range slots {
		s := &slots[i]
		s.base = total
		total += s.n
		s.n = 0
	}
	links := slices.Grow(c.linkArena[:0], int(total))[:total]
	keys := slices.Grow(c.slotArena[:0], int(total))[:total]
	c.linkArena, c.slotArena = links, keys

	// Pass 2: slots[x].n now counts the records written to x's list. At
	// y's turn, y's own list holds exactly its lower neighbors (each
	// appended y to it at its own turn), and its upper neighbors are its
	// pass-1 pairs.
	mutated := len(c.loss) > 0 || len(c.down) > 0
	add := func(x, y int32, l link) {
		s := &slots[x]
		k := s.n
		s.n++
		l.slot, l.down, l.loss = y, false, 0
		if mutated {
			key := linkKey{c.order[x].id, c.order[y].id}
			l.down, l.loss = c.down[key], c.loss[key]
		}
		links[s.base+k], keys[s.base+k] = l, y
	}
	var lo int32
	for y := range slots {
		y := int32(y)
		s := &slots[y]
		for _, l := range links[s.base : s.base+s.n] {
			add(l.slot, y, l)
		}
		for _, j := range upper[lo:s.upperEnd] {
			d := pos[y].Dist(pos[j])
			add(j, y, link{inTx: d <= c.cfg.TxRange, power: c.cfg.power(d)})
		}
		lo = s.upperEnd
	}
	for i, st := range c.order {
		s := &slots[i]
		end := s.base + s.n
		st.nbrs = links[s.base:end:end]
		st.nbrSlots = keys[s.base:end:end]
	}
	c.indexed = true
}

// neighbor returns the cached link record toward the station at the
// given dense slot, or nil when it is beyond carrier-sense range. A
// binary search over the flat slot-key array — no hashing, no
// allocation, and the keys of a few dozen neighbors fit in a couple of
// cache lines.
func (s *Station) neighbor(slot int32) *link {
	keys := s.nbrSlots
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < slot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(keys) && keys[lo] == slot {
		return &s.nbrs[lo]
	}
	return nil
}

// TxNeighbors calls yield(b) for every station b != a with
// InTxRange(a, b), in ascending id order, by walking a's cached records
// with inTx set, O(degree): NewChannel's TxRange <= CSRange rule puts
// every decodable pair on the lists. Like TransmitFrom, it builds the
// index on first use. Route repair enumerates candidate next hops with
// it.
func (c *Channel) TxNeighbors(a pkt.NodeID, yield func(b pkt.NodeID)) {
	if !c.indexed {
		c.buildIndex()
	}
	st := c.station(a)
	for i := range st.nbrs {
		if st.nbrs[i].inTx {
			yield(c.order[st.nbrs[i].slot].id)
		}
	}
}

// cachedLink returns the mutable record of the directed link a->b, or
// nil when the index is not built or the pair is beyond CS range (in
// which case no cached state exists to patch — the rebuild folds the
// maps back in).
func (c *Channel) cachedLink(a, b pkt.NodeID) *link {
	if !c.indexed {
		return nil
	}
	sa, sb := c.station(a), c.station(b)
	if sa == nil || sb == nil {
		return nil
	}
	return sa.neighbor(sb.slot)
}

// station resolves a node id to its Station, or nil if unregistered.
func (c *Channel) station(id pkt.NodeID) *Station {
	if slot, ok := c.idx.Slot(id); ok {
		return c.order[slot]
	}
	return nil
}

// VerifyIndex checks the neighbor index against a from-scratch
// recomputation of the same geometry and link state, returning a
// descriptive error on the first divergence (nil when the index is not
// built: there is nothing to verify). It is O(N²) and allocates freely —
// a correctness oracle for tests and stress harnesses, not a production
// path.
func (c *Channel) VerifyIndex() error {
	if !c.indexed {
		return nil
	}
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
			if d > c.cfg.CSRange {
				continue
			}
			key := linkKey{st.id, o.id}
			want = append(want, link{
				slot:  int32(oi),
				inTx:  d <= c.cfg.TxRange,
				down:  c.down[key],
				power: c.cfg.power(d),
				loss:  c.loss[key],
			})
		}
		if len(want) != len(st.nbrs) {
			return fmt.Errorf("station %v: %d links, want %d", st.id, len(st.nbrs), len(want))
		}
		for k := range want {
			if got := st.nbrs[k]; got != want[k] {
				return fmt.Errorf("station %v link %d: got %+v, want %+v", st.id, k, got, want[k])
			}
			if st.nbrSlots[k] != want[k].slot {
				return fmt.Errorf("station %v slot key %d: got %d, want %d", st.id, k, st.nbrSlots[k], want[k].slot)
			}
		}
	}
	return nil
}
