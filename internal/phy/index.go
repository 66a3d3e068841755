// The PHY neighbor index: precomputed per-station neighbor lists that
// turn every Transmit/finish broadcast from an O(N) all-stations walk
// with per-pair math.Hypot/math.Pow and map lookups into an O(degree)
// walk over flat, cache-resident link records.
//
// Geometry changes only through explicit position updates (phy.MoveNode,
// driven by the mobility subsystem), so distances, received powers, and
// the in-CS-range/in-Tx-range predicates are computed once, when the
// first transmission freezes the topology, and thereafter patched
// incrementally per move (move.go) instead of rebuilt. The other mutable
// per-link state — erasure probability and severed flags, which the
// dynamics subsystem toggles mid-run — is folded into the same records
// and patched in place by SetLinkLoss/SetLinkDown, so the hot path never
// consults the loss/down maps.
//
// Correctness bound: a neighbor list must contain every station one
// transmission can observably affect. Carrier sense and receiver locking
// reach CSRange. Interference reaches farther: a station locked onto a
// frame received at signal power S is corrupted by an interferer of
// power p when S < CaptureRatio·p; the weakest lockable signal is
// power(CSRange), so corruption is impossible beyond
//
//	CSRange · max(1, CaptureRatio)^(1/PathLossExp)
//
// which is the neighbor-list radius (≈978 m for the default 550 m /
// 10 dB / d⁻⁴ model). Stations beyond it are provably untouched by the
// event, so skipping them is behaviour-preserving — the indexed walk
// visits the exact subsequence of the old all-stations id-ordered loop
// that had any effect, in the same order, and therefore consumes the
// engine's RNG stream identically (the byte-identity pin the golden
// campaign tests enforce).
package phy

import (
	"math"
	"slices"

	"ezflow/internal/pkt"
)

// link is the cached record of one directed neighbor pair: the constant
// geometry (received power, range predicates) plus the mutable dynamics
// state (severed flag, erasure probability) of the link from the owning
// station to the station at slot. It is deliberately pointer-free — the
// whole index is backed by shared arenas the garbage collector never has
// to scan; the rare transitions that need the neighbor's radio resolve
// it through Channel.order.
type link struct {
	slot  int32 // the neighbor's dense slot; neighbor lists are sorted by it
	inCS  bool  // within carrier-sense range
	inTx  bool  // within decode range
	down  bool  // severed by dynamics (SetLinkDown)
	power float64
	loss  float64 // erasure probability (SetLinkLoss)
}

// interferenceRange is the neighbor-list radius: the distance beyond
// which a transmission can neither be sensed nor corrupt any reception
// (see the package comment for the derivation). The tiny relative margin
// guards the float boundary of the closed-form inversion; a degenerate
// path-loss exponent (<= 0) makes received power distance-independent,
// so every station interferes with every other and the index degrades to
// full lists.
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

// buildIndex assigns dense slots in id order and computes every
// station's neighbor list via a spatial hash, O(N·degree) for spatially
// bounded deployments. Called lazily by the first transmission after a
// topology change; it reads the loss/down maps so records are coherent
// with mutations applied before the freeze. Dense per-slot event state
// (sensed counts, busy flags, locked receptions) is migrated from the
// previous slot assignment, so a rebuild between flights is transparent.
//
// The lists are built in two passes and never sorted. Pass 1 finds every
// in-range pair once, from its lower slot; counting each pair at both
// ends gives every list's exact length, so the arenas are sized once.
// Pass 1 keeps only each pair's upper slot, in a buffer sized up front
// from the grid's cell populations, so the build allocates little beyond
// the arenas it keeps. Pass 2 visits the stations y in ascending slot
// order and appends y to the list of each of its neighbors, which leaves
// every list ascending by slot. Distance is symmetric to the bit, so the
// received power is computed once per pair and both directed records
// carry the values a per-direction computation would give.
func (c *Channel) buildIndex() {
	n := len(c.order)
	r := c.radius
	pos := make([]Position, n)
	sensed := make([]int32, n)
	busy := make([]bool, n)
	rx := make([]reception, n)
	for i, st := range c.order {
		if st.slot >= 0 && int(st.slot) < len(c.sensed) {
			sensed[i] = c.sensed[st.slot]
			busy[i] = c.busyTx[st.slot]
			rx[i] = c.rx[st.slot]
		}
		st.slot = int32(i)
		pos[i] = st.pos
	}
	c.sensed, c.busyTx, c.rx = sensed, busy, rx

	g := NewSpatialGrid(pos, r)
	c.grid = g
	c.txListed = c.cfg.TxRange <= r
	cand := c.scratch

	// Pass 1: the in-range pairs (i, j > i), grouped by i; count[i] and
	// csCount[i] count i's neighbors and in-CS neighbors.
	upper := make([]int32, 0, g.candidatePairs())
	upperEnd := make([]int32, n)
	count := make([]int32, n)
	csCount := make([]int32, n)
	for i := range pos {
		cand = g.Near(pos[i], cand[:0])
		for _, j := range cand {
			if int(j) <= i || c.beyond(pos[i], pos[j]) {
				continue
			}
			d := pos[i].Dist(pos[j])
			if d > r {
				continue
			}
			upper = append(upper, j)
			count[i]++
			count[j]++
			if d <= c.cfg.CSRange {
				csCount[i]++
				csCount[j]++
			}
		}
		upperEnd[i] = int32(len(upper))
	}
	c.scratch = cand

	// All per-station lists live in three shared arenas, sized exactly
	// and sub-sliced per station: one allocation each instead of three
	// per station, contiguous neighbor records, and — links being
	// pointer-free — nothing for the garbage collector to scan or
	// write-barrier.
	var total, csTotal int
	for i := range n {
		total += int(count[i])
		csTotal += int(csCount[i])
	}
	c.linkArena = slices.Grow(c.linkArena[:0], total)[:total]
	c.slotArena = slices.Grow(c.slotArena[:0], total)[:total]
	c.csArena = slices.Grow(c.csArena[:0], csTotal)[:csTotal]
	links, keys, cs := c.linkArena, c.slotArena, c.csArena
	for i, st := range c.order {
		k, ck := count[i], csCount[i]
		st.nbrs, links = links[:k:k], links[k:]
		st.nbrSlots, keys = keys[:k:k], keys[k:]
		st.csNbrs, cs = cs[:ck:ck], cs[ck:]
		st.nbrTwin = nil
		st.owned = false
	}

	// Pass 2: count[x] and csCount[x] now count the records written to
	// x's lists. At y's turn, y's own list holds exactly its lower
	// neighbors (each appended y to it at its own turn), and its upper
	// neighbors are its pass-1 pairs.
	clear(count)
	clear(csCount)
	mutated := len(c.loss) > 0 || len(c.down) > 0
	add := func(x, y int32, l link) {
		st := c.order[x]
		k := count[x]
		count[x]++
		if l.inCS {
			st.csNbrs[csCount[x]] = k
			csCount[x]++
		}
		l.slot, l.down, l.loss = y, false, 0
		if mutated {
			key := linkKey{st.id, c.order[y].id}
			l.down, l.loss = c.down[key], c.loss[key]
		}
		st.nbrs[k], st.nbrSlots[k] = l, y
	}
	var lo int32
	for y, st := range c.order {
		y := int32(y)
		for _, l := range st.nbrs[:count[y]] {
			add(l.slot, y, l)
		}
		for _, j := range upper[lo:upperEnd[y]] {
			d := pos[y].Dist(pos[j])
			add(j, y, link{
				inCS:  d <= c.cfg.CSRange,
				inTx:  d <= c.cfg.TxRange,
				power: c.cfg.power(d),
			})
		}
		lo = upperEnd[y]
	}
	c.indexed, c.twinned = true, false
}

// buildTwins fills every station's nbrTwin from a twin arena, in one
// cursor pass over all records. Visiting the stations x in ascending
// slot order meets the records toward any station y in the order y's
// own list holds their reverse records (ascending by x), so a per-y
// cursor walks y's list once. It runs on the first MoveNode after
// buildIndex, while every list still lives in the build arenas.
func (c *Channel) buildTwins() {
	total := len(c.slotArena)
	c.twinArena = slices.Grow(c.twinArena[:0], total)[:total]
	twins := c.twinArena
	cursor := make([]int32, len(c.order))
	for _, st := range c.order {
		k := len(st.nbrs)
		st.nbrTwin, twins = twins[:k:k], twins[k:]
		for i, y := range st.nbrSlots {
			st.nbrTwin[i] = cursor[y]
			cursor[y]++
		}
	}
	c.twinned = true
}

// neighbor returns the cached link record toward the station at the
// given dense slot, or nil when it is beyond interference range. A
// binary search over the flat slot-key array — no hashing, no
// allocation, and the keys for a ~100-neighbor list fit in a handful of
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
// InTxRange(a, b), in ascending id order. Once the index is built it
// walks a's cached records with inTx set, O(degree); before the first
// build, or when TxRange reaches past the interference radius (so the
// lists can miss decodable stations), it scans every station with the
// same distance test InTxRange makes. Both paths yield the same set in
// the same order. Route repair enumerates candidate next hops with it.
func (c *Channel) TxNeighbors(a pkt.NodeID, yield func(b pkt.NodeID)) {
	st := c.station(a)
	if c.indexed && c.txListed {
		for i := range st.nbrs {
			if st.nbrs[i].inTx {
				yield(c.order[st.nbrs[i].slot].id)
			}
		}
		return
	}
	for _, o := range c.order {
		if o != st && st.pos.Dist(o.pos) <= c.cfg.TxRange {
			yield(o.id)
		}
	}
}

// cachedLink returns the mutable record of the directed link a->b, or
// nil when the index is not built or the pair is beyond interference
// range (in which case no cached state exists to patch — the rebuild
// folds the maps back in).
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
