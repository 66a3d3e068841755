// Package pkt defines the packet and frame model shared by the PHY, MAC,
// mesh, and EZ-Flow layers.
//
// The design borrows the layering idea of gopacket: a MAC Frame carries a
// network-layer Packet as payload, each layer knows its own wire size, and a
// CaptureInfo records how a frame was observed by a promiscuous tap. The
// network packet exposes the 16-bit transport checksum that EZ-Flow's Buffer
// Occupancy Estimator uses as its packet identifier — computed as a real
// one's-complement sum over the synthetic header so that identifier
// collisions are possible, exactly as with real TCP/UDP checksums.
package pkt

import (
	"fmt"
	"strconv"

	"ezflow/internal/sim"
)

// NodeID identifies a node in the mesh. The broadcast address is Broadcast.
type NodeID int

// Broadcast is the MAC broadcast address.
const Broadcast NodeID = -1

// String formats the node id as N<k> (or "bcast").
func (n NodeID) String() string {
	if n == Broadcast {
		return "bcast"
	}
	return "N" + strconv.Itoa(int(n))
}

// FlowID identifies an end-to-end flow.
type FlowID int

// String formats the flow id as F<k>.
func (f FlowID) String() string { return fmt.Sprintf("F%d", int(f)) }

// FrameType enumerates the 802.11 frame types the simulator models.
type FrameType uint8

const (
	// FrameData carries a network-layer packet.
	FrameData FrameType = iota
	// FrameAck is the positive acknowledgement of a data frame.
	FrameAck
	// FrameRTS requests the medium ahead of a data frame (optional).
	FrameRTS
	// FrameCTS grants an RTS and reserves the medium via its NAV.
	FrameCTS
)

// String returns the 802.11 frame-type mnemonic.
func (t FrameType) String() string {
	switch t {
	case FrameData:
		return "DATA"
	case FrameAck:
		return "ACK"
	case FrameRTS:
		return "RTS"
	case FrameCTS:
		return "CTS"
	default:
		return "?"
	}
}

// Sizes of the fixed parts of frames, in bytes, following IEEE 802.11b.
const (
	MACHeaderBytes = 34 // data frame MAC header + FCS
	AckBytes       = 14
	RTSBytes       = 20
	CTSBytes       = 14
	// BPHeaderBytes is the optional backpressure header a
	// queue-differential controller prepends to data frames (one 16-bit
	// backlog field). Unlike QueueTag it is charged on the air: frames
	// carrying it really are BPHeaderBytes longer.
	BPHeaderBytes = 2
	// DefaultPayloadBytes is the network packet size used throughout the
	// paper's experiments (1000-byte application payload + IP/UDP headers).
	DefaultPayloadBytes = 1028
)

// Packet is a network-layer packet travelling along a multi-hop flow.
// Packets are immutable once created; relays hand around the same pointer.
// Pooled packets (see Pool) are reference-counted via Retain/Release so
// the pool knows when every queue along the path has let go.
type Packet struct {
	Flow    FlowID
	Seq     uint64   // per-flow sequence number, assigned by the source
	Src     NodeID   // originating node
	Dst     NodeID   // final destination node
	Bytes   int      // network-layer size in bytes (headers included)
	Created sim.Time // when the source generated it
	checks  uint16   // cached 16-bit identifier
	hasSum  bool     // whether checks is valid
	refs    int32    // reference count (queues + creator)
	pool    *Pool    // owning pool, nil for hand-built packets
}

// Checksum16 returns the packet's 16-bit transport-style identifier: the
// one's-complement sum of the 16-bit words of a synthetic UDP-like header
// (source, destination, flow, length, and sequence split in two words).
// Distinct packets can share an identifier — the BOE must tolerate that.
func (p *Packet) Checksum16() uint16 {
	if !p.hasSum {
		p.checks = p.computeChecksum()
		p.hasSum = true
	}
	return p.checks
}

func (p *Packet) computeChecksum() uint16 {
	words := [6]uint16{
		uint16(p.Src), uint16(p.Dst), uint16(p.Flow),
		uint16(p.Bytes), uint16(p.Seq >> 16), uint16(p.Seq),
	}
	var sum uint32
	for _, w := range words {
		sum += uint32(w)
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// String formats the packet's flow, sequence, endpoints and size.
func (p *Packet) String() string {
	return fmt.Sprintf("%v#%d %v->%v %dB", p.Flow, p.Seq, p.Src, p.Dst, p.Bytes)
}

// Frame is a MAC-layer frame. Data frames carry a Packet payload; control
// frames (ACK/RTS/CTS) carry none.
type Frame struct {
	Type FrameType
	// TxSrc and TxDst are the per-hop (MAC) transmitter and receiver. For
	// control frames TxDst addresses the peer of the exchange.
	TxSrc, TxDst NodeID
	Payload      *Packet
	// Duration of the NAV reservation carried by RTS/CTS, if used.
	NAV sim.Time
	// QueueTag carries optional piggybacked information (used only by the
	// DiffQ baseline, which does modify the packet structure — EZ-Flow
	// never reads it).
	QueueTag int
	// HasBP marks a data frame carrying the optional backpressure header:
	// BPLen is then the transmitter's backlog toward TxDst in packets, and
	// the frame is BPHeaderBytes longer on the air. Only the backpressure
	// controller (internal/ctl) sets it; EZ-Flow never reads it.
	HasBP bool
	// BPLen is the piggybacked queue length carried when HasBP is set.
	BPLen int
	// Retry marks a retransmission, mirroring the 802.11 retry bit.
	Retry bool
	// pooled marks frames obtained from a Pool, so PutFrame recycles only
	// what it handed out.
	pooled bool
}

// Bytes reports the frame's on-air size in bytes.
func (f *Frame) Bytes() int {
	switch f.Type {
	case FrameData:
		n := MACHeaderBytes
		if f.Payload != nil {
			n += f.Payload.Bytes
		}
		if f.HasBP {
			n += BPHeaderBytes
		}
		return n
	case FrameAck:
		return AckBytes
	case FrameRTS:
		return RTSBytes
	case FrameCTS:
		return CTSBytes
	default:
		return MACHeaderBytes
	}
}

// String formats the frame's type, hop endpoints and payload, if any.
func (f *Frame) String() string {
	if f.Type == FrameData && f.Payload != nil {
		return fmt.Sprintf("%v %v->%v [%v]", f.Type, f.TxSrc, f.TxDst, f.Payload)
	}
	return fmt.Sprintf("%v %v->%v", f.Type, f.TxSrc, f.TxDst)
}

// CaptureInfo describes how a frame was overheard by a promiscuous tap, in
// the spirit of gopacket's CaptureInfo.
type CaptureInfo struct {
	At       sim.Time // when reception completed
	Listener NodeID   // the node whose radio captured the frame
	// OnAir reports that the capture happened at the physical layer (a
	// frame that was really transmitted), as opposed to a local loopback
	// capture before the MAC — the distinction §4.1 draws for the sniffer
	// constraint. The simulator always captures on air.
	OnAir bool
}
