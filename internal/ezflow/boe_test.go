package ezflow

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// sniffFrom builds the data frame node succ would be overheard forwarding.
func sniffFrom(succ pkt.NodeID, p *pkt.Packet) *pkt.Frame {
	return &pkt.Frame{Type: pkt.FrameData, TxSrc: succ, TxDst: succ + 1, Payload: p}
}

func newTestBOE(succ pkt.NodeID) (*BOE, *[]Sample) {
	var got []Sample
	b := NewBOE(succ, func() sim.Time { return 0 }, func(s Sample) { got = append(got, s) })
	return b, &got
}

// simulateFIFO drives a BOE against an explicitly simulated successor FIFO
// and checks every estimate equals the true occupancy at overhear time.
func TestBOEExactUnderFIFO(t *testing.T) {
	b, got := newTestBOE(1)
	var fifo []*pkt.Packet
	seq := uint64(0)
	send := func() {
		seq++
		p := pkt.NewPacket(1, seq, 0, 5, 1028, 0)
		b.RecordSent(p.Checksum16())
		fifo = append(fifo, p)
	}
	forward := func() *pkt.Packet {
		p := fifo[0]
		fifo = fifo[1:]
		return p
	}
	// Interleave sends and forwards in a fixed pattern.
	for round := 0; round < 200; round++ {
		for i := 0; i < 3; i++ {
			send()
		}
		for i := 0; i < 2; i++ {
			p := forward()
			before := len(*got)
			b.OnSniff(sniffFrom(1, p))
			if len(*got) != before+1 {
				t.Fatalf("round %d: sniff produced no estimate", round)
			}
			est := (*got)[len(*got)-1].Value
			if est != len(fifo) {
				t.Fatalf("round %d: estimate %d, true occupancy %d", round, est, len(fifo))
			}
		}
	}
	if b.Matched != b.Overheard {
		t.Fatalf("matched %d of %d overheard under loss-free FIFO", b.Matched, b.Overheard)
	}
}

func TestBOEIgnoresIrrelevantFrames(t *testing.T) {
	b, got := newTestBOE(1)
	p := pkt.NewPacket(1, 1, 0, 5, 1028, 0)
	b.RecordSent(p.Checksum16())
	// Wrong source: a frame from node 7, not the successor.
	b.OnSniff(&pkt.Frame{Type: pkt.FrameData, TxSrc: 7, TxDst: 8, Payload: p})
	// Control frame from the successor.
	b.OnSniff(&pkt.Frame{Type: pkt.FrameAck, TxSrc: 1, TxDst: 0})
	// Data frame without payload.
	b.OnSniff(&pkt.Frame{Type: pkt.FrameData, TxSrc: 1, TxDst: 2})
	if len(*got) != 0 {
		t.Fatalf("irrelevant frames produced %d estimates", len(*got))
	}
}

func TestBOEUnknownIdentifierNoEstimate(t *testing.T) {
	b, got := newTestBOE(1)
	sent := pkt.NewPacket(1, 1, 0, 5, 1028, 0)
	b.RecordSent(sent.Checksum16())
	// The successor forwards a packet we never sent (e.g. cross traffic
	// from another predecessor).
	other := pkt.NewPacket(9, 77, 3, 5, 999, 0)
	if other.Checksum16() == sent.Checksum16() {
		t.Skip("identifier collision in test vector")
	}
	b.OnSniff(sniffFrom(1, other))
	if len(*got) != 0 {
		t.Fatal("estimate produced for an unknown identifier")
	}
	if b.Overheard != 1 || b.Matched != 0 {
		t.Fatalf("counters: overheard=%d matched=%d", b.Overheard, b.Matched)
	}
}

func TestBOESniffBeforeAnySend(t *testing.T) {
	b, got := newTestBOE(1)
	b.OnSniff(sniffFrom(1, pkt.NewPacket(1, 1, 0, 5, 1028, 0)))
	if len(*got) != 0 {
		t.Fatal("estimate produced before any send was recorded")
	}
}

func TestBOERingOverwrite(t *testing.T) {
	b, got := newTestBOE(1)
	// Send HistorySize+100 packets; the first 100 identifiers must be
	// forgotten.
	packets := make([]*pkt.Packet, HistorySize+100)
	for i := range packets {
		packets[i] = pkt.NewPacket(1, uint64(i+1), 0, 5, 1028, 0)
		b.RecordSent(packets[i].Checksum16())
	}
	// Overhear the very first packet: its slot has been overwritten, so
	// unless its 16-bit identifier happens to alias a live entry there is
	// no estimate; if it does alias, the estimate is still bounded by the
	// ring size.
	before := len(*got)
	b.OnSniff(sniffFrom(1, packets[0]))
	if len(*got) > before {
		est := (*got)[len(*got)-1].Value
		if est < 0 || est >= HistorySize {
			t.Fatalf("aliased estimate out of bounds: %d", est)
		}
	}
	// The most recent packet must still be tracked exactly: estimate 0.
	b.OnSniff(sniffFrom(1, packets[len(packets)-1]))
	if len(*got) == before {
		t.Fatal("no estimate for the most recent packet")
	}
	if est := (*got)[len(*got)-1].Value; est != 0 {
		t.Fatalf("estimate for last-sent packet = %d, want 0", est)
	}
}

func TestBOEIdentifierCollisionPicksNearest(t *testing.T) {
	// Two distinct ring slots holding the same identifier: the estimate
	// must use the most recently sent instance (smallest distance), which
	// is the FIFO-consistent reading.
	b, got := newTestBOE(1)
	p := pkt.NewPacket(1, 42, 0, 5, 1028, 0)
	b.RecordSent(p.Checksum16()) // old instance
	for i := 0; i < 10; i++ {
		b.RecordSent(pkt.NewPacket(1, uint64(100+i), 0, 5, 1028, 0).Checksum16())
	}
	b.RecordSent(p.Checksum16()) // fresh instance (same identifier)
	b.RecordSent(pkt.NewPacket(1, 200, 0, 5, 1028, 0).Checksum16())
	b.OnSniff(sniffFrom(1, p))
	if len(*got) != 1 {
		t.Fatal("no estimate")
	}
	if est := (*got)[0].Value; est != 1 {
		t.Fatalf("estimate %d, want 1 (nearest instance)", est)
	}
}

func TestBOELossySniffStillConsistent(t *testing.T) {
	// §3.2: the BOE need not overhear every forwarded packet. Drop 70% of
	// sniffs; every estimate that does fire must still be exact.
	b, got := newTestBOE(1)
	rng := rand.New(rand.NewSource(7))
	var fifo []*pkt.Packet
	seq := uint64(0)
	for round := 0; round < 2000; round++ {
		if rng.Intn(2) == 0 || len(fifo) == 0 {
			seq++
			p := pkt.NewPacket(1, seq, 0, 5, 1028, 0)
			b.RecordSent(p.Checksum16())
			fifo = append(fifo, p)
		} else {
			p := fifo[0]
			fifo = fifo[1:]
			if rng.Float64() < 0.7 {
				continue // sniff lost
			}
			before := len(*got)
			b.OnSniff(sniffFrom(1, p))
			if len(*got) > before {
				if est := (*got)[len(*got)-1].Value; est != len(fifo) {
					t.Fatalf("lossy sniff estimate %d, true %d", est, len(fifo))
				}
			}
		}
	}
	if len(*got) == 0 {
		t.Fatal("no estimates at all under 70% sniff loss")
	}
}

func TestBOESuccessorAccessor(t *testing.T) {
	b, _ := newTestBOE(3)
	if b.Successor() != 3 {
		t.Fatal("Successor")
	}
}

// Property: for any interleaving of sends and FIFO forwards (no loss), the
// BOE estimate equals the true successor queue length. This is the paper's
// core inference claim.
func TestPropertyBOEMatchesFIFO(t *testing.T) {
	f := func(ops []bool) bool {
		b, got := newTestBOE(1)
		var fifo []*pkt.Packet
		seq := uint64(0)
		for _, isSend := range ops {
			if isSend || len(fifo) == 0 {
				seq++
				p := pkt.NewPacket(1, seq, 0, 5, 1028, 0)
				b.RecordSent(p.Checksum16())
				fifo = append(fifo, p)
			} else {
				p := fifo[0]
				fifo = fifo[1:]
				before := len(*got)
				b.OnSniff(sniffFrom(1, p))
				if len(*got) != before+1 {
					return false
				}
				if (*got)[len(*got)-1].Value != len(fifo) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// refBOE is the map-based send history the BOE once used, kept as the
// differential oracle: a ring of the last HistorySize identifiers plus an
// identifier -> ring-slots map, answering a sniff with the live slot
// closest behind LastPktSent.
type refBOE struct {
	succ  pkt.NodeID
	ring  []uint16
	pos   map[uint16][]int
	head  int // next slot to overwrite
	count int // valid entries
	last  int // slot of LastPktSent (-1 before the first send)

	Sent, Overheard, Matched, Estimates uint64

	emit func(Sample)
	now  func() sim.Time
}

func newRefBOE(succ pkt.NodeID, now func() sim.Time, emit func(Sample)) *refBOE {
	return &refBOE{
		succ: succ,
		ring: make([]uint16, HistorySize),
		pos:  make(map[uint16][]int),
		last: -1,
		emit: emit,
		now:  now,
	}
}

func (b *refBOE) RecordSent(id uint16) {
	b.Sent++
	if b.count == len(b.ring) {
		old := b.ring[b.head]
		xs := b.pos[old]
		for i, x := range xs {
			if x == b.head {
				xs = append(xs[:i], xs[i+1:]...)
				break
			}
		}
		b.pos[old] = xs
	} else {
		b.count++
	}
	b.ring[b.head] = id
	b.pos[id] = append(b.pos[id], b.head)
	b.last = b.head
	b.head = (b.head + 1) % len(b.ring)
}

func (b *refBOE) OnSniff(f *pkt.Frame) {
	if f.Type != pkt.FrameData || f.TxSrc != b.succ || f.Payload == nil {
		return
	}
	b.Overheard++
	if b.last < 0 {
		return
	}
	idxs := b.pos[f.Payload.Checksum16()]
	if len(idxs) == 0 {
		return
	}
	b.Matched++
	n := len(b.ring)
	best := n + 1
	for _, idx := range idxs {
		if d := (b.last - idx + n) % n; d < best {
			best = d
		}
	}
	b.Estimates++
	if b.emit != nil {
		b.emit(Sample{At: b.now(), Value: best})
	}
}

// packetWithID returns a packet whose Checksum16 is id: the checksum is
// the complement of a one's-complement sum that includes the sequence
// number, so solving for the sequence hits any identifier.
func packetWithID(id uint16) *pkt.Packet {
	base := pkt.NewPacket(1, 0, 0, 5, 1028, 0).Checksum16()
	// Raising the sequence's low word by k lowers the checksum by k
	// (mod 0xffff, one's complement).
	k := (uint32(base) + 0xffff - uint32(id)) % 0xffff
	p := pkt.NewPacket(1, uint64(k), 0, 5, 1028, 0)
	if p.Checksum16() != id {
		// One's-complement zero has two spellings; the other sequence
		// reaches the one the first missed.
		p = pkt.NewPacket(1, uint64(k)+0xffff, 0, 5, 1028, 0)
	}
	if p.Checksum16() != id {
		panic("packetWithID: no sequence reaches the identifier")
	}
	return p
}

// TestBOEMatchesMapOracle drives the BOE and the map-based reference
// with the same random stream — identifiers from a small range, so
// histories are full of collisions — and requires the same samples and
// counters throughout. The stream runs past 2×HistorySize sends, and
// sniffs evicted, unknown and never-sent identifiers as well as frames
// from non-successors, control frames and payload-less frames.
func TestBOEMatchesMapOracle(t *testing.T) {
	for _, idRange := range []int{7, 300, 1500} {
		rng := rand.New(rand.NewSource(int64(idRange)))
		var clock sim.Time
		now := func() sim.Time { return clock }
		var got, want []Sample
		b := NewBOE(1, now, func(s Sample) { got = append(got, s) })
		ref := newRefBOE(1, now, func(s Sample) { want = append(want, s) })
		packets := make([]*pkt.Packet, idRange+50)
		for i := range packets {
			packets[i] = packetWithID(uint16(i))
		}
		var sent []uint16 // every identifier sent, oldest first
		for step := 0; step < 6*HistorySize; step++ {
			clock += sim.Time(rng.Intn(1000))
			var f *pkt.Frame
			switch r := rng.Intn(10); {
			case r < 5:
				id := uint16(rng.Intn(idRange))
				b.RecordSent(id)
				ref.RecordSent(id)
				sent = append(sent, id)
				continue
			case r < 7 && len(sent) > 0:
				// A recent send, as a loss-free FIFO successor forwards.
				back := rng.Intn(min(len(sent), 50))
				f = sniffFrom(1, packets[sent[len(sent)-1-back]])
			case r < 8 && len(sent) > HistorySize && rng.Intn(2) == 0:
				// The oldest live send or the newest evicted one.
				back := HistorySize - 1 + rng.Intn(2)
				f = sniffFrom(1, packets[sent[len(sent)-1-back]])
			case r < 8 && len(sent) > HistorySize:
				// A send already evicted from the history (its
				// identifier may still be live through a later send).
				f = sniffFrom(1, packets[sent[rng.Intn(len(sent)-HistorySize)]])
			case r < 9:
				// Any identifier, including ones above idRange that
				// were never sent.
				f = sniffFrom(1, packets[rng.Intn(len(packets))])
			default:
				p := packets[rng.Intn(idRange)]
				switch rng.Intn(3) {
				case 0:
					f = sniffFrom(7, p) // not the successor
				case 1:
					f = &pkt.Frame{Type: pkt.FrameAck, TxSrc: 1, TxDst: 0}
				default:
					f = &pkt.Frame{Type: pkt.FrameData, TxSrc: 1, TxDst: 2}
				}
			}
			b.OnSniff(f)
			ref.OnSniff(f)
			if len(got) != len(want) || (len(got) > 0 && got[len(got)-1] != want[len(want)-1]) {
				t.Fatalf("range %d step %d: samples diverge: got %v, want %v",
					idRange, step, got[max(0, len(got)-1):], want[max(0, len(want)-1):])
			}
		}
		if b.Sent != ref.Sent || b.Overheard != ref.Overheard ||
			b.Matched != ref.Matched || b.Estimates != ref.Estimates {
			t.Fatalf("range %d: counters sent/overheard/matched/estimates = %d/%d/%d/%d, want %d/%d/%d/%d",
				idRange, b.Sent, b.Overheard, b.Matched, b.Estimates,
				ref.Sent, ref.Overheard, ref.Matched, ref.Estimates)
		}
		if b.Sent <= 2*HistorySize || b.Matched == 0 || b.Matched == b.Overheard {
			t.Fatalf("range %d: stream too tame: %d sends, %d of %d sniffs matched",
				idRange, b.Sent, b.Matched, b.Overheard)
		}
	}
}

// TestBOEHistoryAllocations pins the storage contract: a BOE that never
// sends holds no history, and once full, a stream of identifiers it has
// never seen costs no allocation.
func TestBOEHistoryAllocations(t *testing.T) {
	b := NewBOE(1, func() sim.Time { return 0 }, func(Sample) {})
	b.OnSniff(sniffFrom(1, pkt.NewPacket(1, 1, 0, 5, 1028, 0)))
	if b.ids != nil || b.prev != nil || b.head != nil {
		t.Fatal("a BOE that never sent allocated history")
	}
	for i := 0; i < HistorySize; i++ {
		b.RecordSent(uint16(i))
	}
	frames := make([]*pkt.Frame, 64)
	for i := range frames {
		frames[i] = sniffFrom(1, packetWithID(uint16(HistorySize+i)))
	}
	i := 0
	if n := testing.AllocsPerRun(len(frames)-1, func() {
		f := frames[i]
		i++
		b.RecordSent(f.Payload.Checksum16())
		b.OnSniff(f)
	}); n != 0 {
		t.Fatalf("steady-state send+sniff allocates %.1f per call, want 0", n)
	}
}
