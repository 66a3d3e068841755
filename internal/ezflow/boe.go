// Package ezflow implements the paper's contribution: the EZ-Flow
// distributed flow-control mechanism, composed of a Buffer Occupancy
// Estimator (BOE) and a Channel Access Adaptation (CAA) module. It acts
// on the MAC only through the per-queue CWmin knob and learns only from
// the node's own transmissions and the frames it overhears — never
// through message passing.
//
// One Controller runs per (node, successor) pair, exactly as the paper
// deploys one EZ-Flow program per relay with per-successor state. This
// package holds the algorithm only; internal/ctl's "ezflow" controller
// deploys it over a mesh through the relay hooks.
package ezflow

import (
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// HistorySize is the number of recently sent packet identifiers the BOE
// remembers (the paper's "list of the identifiers of the last 1000
// packets").
const HistorySize = 1000

// Sample is one buffer-occupancy estimate produced by the BOE.
type Sample struct {
	At    sim.Time
	Value int // estimated b_{k+1}
}

// BOE passively estimates the buffer occupancy of the successor node
// b_{k+1} from two pieces of local information: the identifiers of packets
// this node sent to the successor, and the identifiers of packets the
// successor is overheard forwarding to its own successor. Because the
// successor's buffer is FIFO, the number of identifiers between the
// overheard packet and the most recently sent one equals the packets still
// queued there (Algorithm 1 of the paper).
type BOE struct {
	succ pkt.NodeID // N_{k+1}

	// ring of the last HistorySize sent identifiers, oldest overwritten.
	ring  []uint16
	pos   map[uint16][]int // identifier -> ring indexes holding it
	head  int              // next slot to overwrite
	count int              // number of valid entries
	last  int              // ring index of LastPktSent (-1 before first send)

	// Stats
	Sent      uint64 // identifiers recorded
	Overheard uint64 // successor forwards overheard
	Matched   uint64 // overhears that matched a recorded identifier
	Estimates uint64 // samples emitted

	emit func(Sample)
	now  func() sim.Time
}

// NewBOE creates an estimator for the successor node succ. emit receives
// each buffer estimate; now supplies virtual time.
func NewBOE(succ pkt.NodeID, now func() sim.Time, emit func(Sample)) *BOE {
	return &BOE{
		succ: succ,
		ring: make([]uint16, HistorySize),
		pos:  make(map[uint16][]int),
		last: -1,
		emit: emit,
		now:  now,
	}
}

// Successor reports which node this BOE watches.
func (b *BOE) Successor() pkt.NodeID { return b.succ }

// RecordSent stores the identifier of a packet just transmitted to the
// successor ("Store checksum of p in PktSent[]; LastPktSent = checksum").
func (b *BOE) RecordSent(id uint16) {
	b.Sent++
	// Overwrite the oldest entry if the ring is full.
	if b.count == len(b.ring) {
		old := b.ring[b.head]
		b.dropIndex(old, b.head)
	} else {
		b.count++
	}
	b.ring[b.head] = id
	b.pos[id] = append(b.pos[id], b.head)
	b.last = b.head
	b.head = (b.head + 1) % len(b.ring)
}

func (b *BOE) dropIndex(id uint16, idx int) {
	xs := b.pos[id]
	for i, x := range xs {
		if x == idx {
			xs = append(xs[:i], xs[i+1:]...)
			break
		}
	}
	// Keep the (possibly empty) slice in the map: once the ring has cycled
	// through an identifier, its slot capacity is reused forever, so
	// steady-state RecordSent stops allocating.
	b.pos[id] = xs
}

// OnSniff processes a frame overheard on the air. Only data frames
// transmitted *by the successor* to some third node count: they reveal
// which packet the successor just forwarded. If the identifier matches the
// sent history, the distance (in packets) from it to LastPktSent is the
// successor's current buffer occupancy, and a sample is emitted.
func (b *BOE) OnSniff(f *pkt.Frame) {
	if f.Type != pkt.FrameData || f.TxSrc != b.succ || f.Payload == nil {
		return
	}
	b.Overheard++
	if b.last < 0 {
		return
	}
	id := f.Payload.Checksum16()
	idxs := b.pos[id]
	if len(idxs) == 0 {
		return
	}
	b.Matched++
	// With identifier collisions several ring slots may hold id; take the
	// one closest behind LastPktSent (the most recently sent instance),
	// which is the FIFO-consistent interpretation.
	best := -1
	bestDist := len(b.ring) + 1
	for _, idx := range idxs {
		d := b.distance(idx)
		if d < bestDist {
			bestDist = d
			best = idx
		}
	}
	if best < 0 {
		return
	}
	b.Estimates++
	if b.emit != nil {
		b.emit(Sample{At: b.now(), Value: bestDist})
	}
}

// distance counts packets sent strictly after ring index idx up to and
// including LastPktSent — the packets that must still sit in the
// successor's FIFO buffer when the packet at idx is being forwarded.
func (b *BOE) distance(idx int) int {
	n := len(b.ring)
	d := (b.last - idx + n) % n
	return d
}
