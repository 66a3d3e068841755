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

// bucketBits sets the number of identifier buckets the send history
// chains through: 256 chains for at most HistorySize live sends, so a
// lookup walks about four entries.
const bucketBits = 8

// bucket maps an identifier to its history chain. Identifiers of
// consecutive packets differ in their low bits (Checksum16 is a sum that
// includes the sequence number), so the low byte spreads them evenly.
func bucket(id uint16) uint16 { return id & (1<<bucketBits - 1) }

// BOE passively estimates the buffer occupancy of the successor node
// b_{k+1} from two pieces of local information: the identifiers of packets
// this node sent to the successor, and the identifiers of packets the
// successor is overheard forwarding to its own successor. Because the
// successor's buffer is FIFO, the number of identifiers between the
// overheard packet and the most recently sent one equals the packets still
// queued there (Algorithm 1 of the paper).
//
// The history of the last HistorySize sends is keyed by absolute send
// number: send n (counting from 0) lives at slot n%HistorySize. Sends
// whose identifiers share a bucket are chained newest-first: head holds
// each bucket's newest send and prev each slot's predecessor in its
// bucket, both as n+1 so that 0 ends a chain. A chain entry that is
// HistorySize or more sends old has been evicted, and so has everything
// behind it. Storage grows with the sends, up to HistorySize slots and
// the bucket heads, and is then reused: a steady stream of new
// identifiers costs no allocation, and a BOE that never sends allocates
// no history.
type BOE struct {
	succ pkt.NodeID // N_{k+1}

	ids  []uint16 // identifier of each send, by slot
	prev []uint64 // previous send in the slot's bucket, +1 (0: none)
	head []uint64 // newest send in each bucket, +1 (0: none)

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
	return &BOE{succ: succ, emit: emit, now: now}
}

// Successor reports which node this BOE watches.
func (b *BOE) Successor() pkt.NodeID { return b.succ }

// RecordSent stores the identifier of a packet just transmitted to the
// successor ("Store checksum of p in PktSent[]; LastPktSent = checksum").
// Sent counts the sends, so send n = Sent-1 is LastPktSent.
func (b *BOE) RecordSent(id uint16) {
	if b.head == nil {
		b.head = make([]uint64, 1<<bucketBits)
	}
	n := b.Sent
	b.Sent++
	k := bucket(id)
	if len(b.ids) < HistorySize {
		// Still filling: slot n is the next one.
		b.ids = append(b.ids, id)
		b.prev = append(b.prev, b.head[k])
	} else {
		// Overwrite the oldest send. Its own chain link needs no
		// unhooking: any walk that reaches it sees it is evicted.
		s := n % HistorySize
		b.ids[s], b.prev[s] = id, b.head[k]
	}
	b.head[k] = n + 1
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
	if b.Sent == 0 {
		return
	}
	id := f.Payload.Checksum16()
	// With identifier collisions several live sends may carry id; the
	// newest-first walk meets the most recently sent instance first,
	// which is the FIFO-consistent interpretation. Its distance counts
	// the packets sent after it up to and including LastPktSent — the
	// packets that must still sit in the successor's FIFO buffer.
	for e := b.head[bucket(id)]; e != 0 && b.Sent-(e-1) <= HistorySize; e = b.prev[(e-1)%HistorySize] {
		if n := e - 1; b.ids[n%HistorySize] == id {
			b.Matched++
			b.Estimates++
			if b.emit != nil {
				b.emit(Sample{At: b.now(), Value: int(b.Sent - 1 - n)})
			}
			return
		}
	}
}
