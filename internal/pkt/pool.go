// Packet and frame pooling for the zero-allocation forwarding path.
//
// A Pool recycles Packets and Frames within one simulation run. Packets
// are reference-counted because ownership overlaps during multi-hop
// forwarding: the upstream MAC keeps the packet at its queue head until
// the ACK arrives, while the downstream node has already enqueued the same
// pointer for its own hop — and on a retry-limit drop both may hold it at
// once. The channel additionally holds a reference for the duration of an
// in-flight data frame, so a transmitter that abandons the packet mid-air
// (dynamics halting a node and flushing its queues) cannot strand the
// frame's payload pointer in recycled storage. Frames have exactly one
// owner (the in-flight transmission), so they are returned to the pool
// unconditionally when their flight ends.
//
// Pools are engine-local, like everything in a scenario: one Pool per
// channel, touched only from that scenario's single-threaded event loop,
// so no locking is needed and concurrent scenarios (the campaign layer)
// never share one.
package pkt

import "ezflow/internal/sim"

// Pool recycles packets and frames of one simulation run. The zero value
// is not useful; use NewPool.
type Pool struct {
	packets []*Packet
	frames  []*Frame

	// Stats count pool traffic (reuses/news) for tests and tuning.
	Stats PoolStats
}

// PoolStats aggregates pool counters.
type PoolStats struct {
	PacketNews   uint64
	PacketReuses uint64
	FrameNews    uint64
	FrameReuses  uint64
}

// NewPool creates an empty pool.
func NewPool() *Pool { return &Pool{} }

// Packet returns an initialised packet with reference count 1. The caller
// owns that reference and must Release it once it has handed the packet
// off (queues take their own reference via Retain).
func (pl *Pool) Packet(flow FlowID, seq uint64, src, dst NodeID, bytes int, created sim.Time) *Packet {
	var p *Packet
	if n := len(pl.packets); n > 0 {
		p = pl.packets[n-1]
		pl.packets[n-1] = nil
		pl.packets = pl.packets[:n-1]
		pl.Stats.PacketReuses++
	} else {
		p = &Packet{pool: pl}
		pl.Stats.PacketNews++
	}
	p.Flow, p.Seq, p.Src, p.Dst, p.Bytes, p.Created = flow, seq, src, dst, bytes, created
	p.checks = p.computeChecksum()
	p.hasSum = true
	p.refs = 1
	return p
}

// Frame returns a zeroed frame owned by the caller. It must be returned
// with PutFrame exactly once, by whoever ends its life (the PHY when the
// flight completes, or the MAC when it gives up on an unsent control
// response).
func (pl *Pool) Frame() *Frame {
	if n := len(pl.frames); n > 0 {
		f := pl.frames[n-1]
		pl.frames[n-1] = nil
		pl.frames = pl.frames[:n-1]
		pl.Stats.FrameReuses++
		f.pooled = true
		return f
	}
	pl.Stats.FrameNews++
	return &Frame{pooled: true}
}

// PutFrame recycles a frame obtained from Frame. Frames built by hand
// (tests, tools) pass through unharmed, and double-puts are no-ops, so
// the PHY can call this unconditionally on every completed flight.
func (pl *Pool) PutFrame(f *Frame) {
	if f == nil || !f.pooled {
		return
	}
	*f = Frame{} // clears pooled until Frame() hands it out again
	pl.frames = append(pl.frames, f)
}

// Retain takes an additional reference on p. Each queue that accepts the
// packet holds one reference for as long as the packet sits in its buffer.
func (p *Packet) Retain() { p.refs++ }

// Release drops one reference. When the count reaches zero a pooled packet
// returns to its pool; a hand-built packet (a &Packet literal) is left to the
// garbage collector. Releasing below zero panics: it means an ownership
// bug that would otherwise surface as silent packet aliasing.
func (p *Packet) Release() {
	p.refs--
	if p.refs > 0 {
		return
	}
	if p.refs < 0 {
		panic("pkt: Release below zero references")
	}
	if p.pool != nil {
		p.pool.packets = append(p.pool.packets, p)
	}
}
