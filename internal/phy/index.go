// The PHY neighbor index: precomputed per-station neighbor lists that
// turn every Transmit/finish broadcast from an O(N) all-stations walk
// with per-pair math.Hypot/math.Pow and map lookups into an O(degree)
// walk over flat, cache-resident link records.
//
// Geometry changes only through explicit position updates
// (Channel.MoveNodes, driven by the mobility subsystem), so distances,
// received powers, and the in-CS-range/in-Tx-range predicates are
// computed when the first transmission freezes the topology and again
// once per batch of moves, never per event. The other mutable
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
	"fmt"
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
	upperEnd     int32 // the end of its pass-1 pairs in upper
	n, cs        int32 // its records and in-CS records: counted, then written
	base, csBase int32 // the offsets of its lists in the arenas
}

// buildIndex assigns dense slots in id order and computes every
// station's neighbor list via a spatial hash, O(N·degree) for spatially
// bounded deployments. Called lazily by the first transmission after a
// topology change, and by MoveNodes after each batch of moves; it reads
// the loss/down maps so records are coherent with mutations applied
// before the build. Dense per-slot event state (sensed counts, busy
// flags, locked receptions) is migrated when AddNode has shifted the
// slots since the last build and kept in place otherwise, so a rebuild
// between or during flights is transparent.
//
// The lists are built in two passes and never sorted. Pass 1 finds every
// in-range pair once, from its lower slot, and keeps its upper slot;
// counting each pair at both ends gives every list's exact length, so
// the arenas are sized once. Its range tests read squared distances
// (see reach), so it computes a distance only for the rare pair near a
// range boundary. Pass 2 visits the stations y in ascending slot order,
// computes each of y's pass-1 pairs' distance — once per pair — and
// appends y to the list of each of its neighbors, which leaves every
// list ascending by slot. Distance is symmetric to the bit, so both
// directed records of a pair carry the values a per-direction
// computation would give.
func (c *Channel) buildIndex() {
	n := len(c.order)
	b := &c.build
	if len(c.sensed) != n {
		// AddNode has registered stations since the last build, so slots
		// shifted: carry each station's event state to its new slot.
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
		}
		c.sensed, c.busyTx, c.rx = sensed, busy, rx
	}
	pos := slices.Grow(b.pos[:0], n)[:n]
	for i, st := range c.order {
		pos[i] = st.pos
	}
	b.pos = pos

	g := &b.grid
	g.reset(pos, c.nbrReach.lim)
	c.txListed = c.cfg.TxRange <= c.nbrReach.lim

	// Pass 1: the in-range pairs (i, j > i), grouped by i; slots[i].n and
	// slots[i].cs count i's neighbors and in-CS neighbors.
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
			if !c.nbrReach.within(dx, dy, s) {
				continue
			}
			upper = append(upper, j)
			sj := &slots[j]
			si.n++
			sj.n++
			if c.csReach.within(dx, dy, s) {
				si.cs++
				sj.cs++
			}
		}
		si.upperEnd = int32(len(upper))
	}
	b.cand, b.upper, b.slots = cand, upper, slots

	// All per-station lists live in three shared arenas, sized exactly
	// and sub-sliced per station: one allocation each instead of three
	// per station, contiguous neighbor records, and — links being
	// pointer-free — nothing for the garbage collector to scan or
	// write-barrier.
	var total, csTotal int32
	for i := range slots {
		s := &slots[i]
		s.base, s.csBase = total, csTotal
		total += s.n
		csTotal += s.cs
		s.n, s.cs = 0, 0
	}
	links := slices.Grow(c.linkArena[:0], int(total))[:total]
	keys := slices.Grow(c.slotArena[:0], int(total))[:total]
	cs := slices.Grow(c.csArena[:0], int(csTotal))[:csTotal]
	c.linkArena, c.slotArena, c.csArena = links, keys, cs

	// Pass 2: slots[x].n and slots[x].cs now count the records written
	// to x's lists. At y's turn, y's own list holds exactly its lower
	// neighbors (each appended y to it at its own turn), and its upper
	// neighbors are its pass-1 pairs.
	mutated := len(c.loss) > 0 || len(c.down) > 0
	add := func(x, y int32, l link) {
		s := &slots[x]
		k := s.n
		s.n++
		if l.inCS {
			cs[s.csBase+s.cs] = k
			s.cs++
		}
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
			add(j, y, link{
				inCS:  d <= c.cfg.CSRange,
				inTx:  d <= c.cfg.TxRange,
				power: c.cfg.power(d),
			})
		}
		lo = s.upperEnd
	}
	for i, st := range c.order {
		s := &slots[i]
		end, csEnd := s.base+s.n, s.csBase+s.cs
		st.nbrs = links[s.base:end:end]
		st.nbrSlots = keys[s.base:end:end]
		st.csNbrs = cs[s.csBase:csEnd:csEnd]
	}
	c.indexed = true
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
	r := c.nbrReach.lim
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
	}
	return nil
}
