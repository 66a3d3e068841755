package pkt

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"ezflow/internal/sim"
)

func TestChecksumDeterministic(t *testing.T) {
	a := NewPool().Packet(1, 42, 0, 5, 1028, 0)
	b := NewPool().Packet(1, 42, 0, 5, 1028, 7*sim.Second)
	if a.Checksum16() != b.Checksum16() {
		t.Fatal("checksum must not depend on creation time")
	}
	c := NewPool().Packet(1, 43, 0, 5, 1028, 0)
	if a.Checksum16() == c.Checksum16() {
		t.Fatal("consecutive sequence numbers should differ in checksum")
	}
}

func TestChecksumLazy(t *testing.T) {
	p := &Packet{Flow: 2, Seq: 9, Src: 1, Dst: 3, Bytes: 100}
	want := NewPool().Packet(2, 9, 1, 3, 100, 0).Checksum16()
	if p.Checksum16() != want {
		t.Fatal("lazy checksum differs from precomputed")
	}
}

// Property: the checksum is a pure function of the header fields and stays
// within 16 bits (trivially true by type, but exercise the folding).
func TestPropertyChecksumPure(t *testing.T) {
	f := func(flow uint8, seq uint32, src, dst uint8, size uint16) bool {
		p1 := NewPool().Packet(FlowID(flow), uint64(seq), NodeID(src), NodeID(dst), int(size), 0)
		p2 := NewPool().Packet(FlowID(flow), uint64(seq), NodeID(src), NodeID(dst), int(size), 123)
		return p1.Checksum16() == p2.Checksum16()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// The 16-bit identifier space must exhibit collisions across distinct
// packets — the BOE is designed to tolerate them, and the test suite relies
// on them existing to exercise that path.
func TestChecksumCollisionsExist(t *testing.T) {
	seen := make(map[uint16]uint64)
	collisions := 0
	for seq := uint64(0); seq < 200000; seq++ {
		ck := NewPool().Packet(1, seq, 0, 9, 1028, 0).Checksum16()
		if _, dup := seen[ck]; dup {
			collisions++
		}
		seen[ck] = seq
	}
	if collisions == 0 {
		t.Fatal("no identifier collisions in 200k packets; 16-bit space should alias")
	}
}

func TestFrameBytes(t *testing.T) {
	p := NewPool().Packet(1, 1, 0, 2, 1028, 0)
	cases := []struct {
		f    Frame
		want int
	}{
		{Frame{Type: FrameData, Payload: p}, MACHeaderBytes + 1028},
		{Frame{Type: FrameData}, MACHeaderBytes},
		{Frame{Type: FrameAck}, AckBytes},
		{Frame{Type: FrameRTS}, RTSBytes},
		{Frame{Type: FrameCTS}, CTSBytes},
	}
	for _, c := range cases {
		if got := c.f.Bytes(); got != c.want {
			t.Errorf("%v: bytes = %d, want %d", c.f.Type, got, c.want)
		}
	}
}

// TestNodeIDString pins the node names that label traces and reports:
// the strconv spelling must stay byte-identical to fmt's "N%d".
func TestNodeIDString(t *testing.T) {
	for id, want := range map[NodeID]string{0: "N0", 7: "N7", 399: "N399", Broadcast: "bcast"} {
		if got := id.String(); got != want {
			t.Errorf("NodeID(%d).String() = %q, want %q", int(id), got, want)
		}
	}
	for id := NodeID(-3); id <= 1000; id++ {
		if id != Broadcast && id.String() != fmt.Sprintf("N%d", int(id)) {
			t.Errorf("NodeID(%d).String() = %q, want fmt's %q", int(id), id.String(), fmt.Sprintf("N%d", int(id)))
		}
	}
}

func TestStringers(t *testing.T) {
	if Broadcast.String() != "bcast" {
		t.Error("broadcast stringer")
	}
	if NodeID(3).String() != "N3" {
		t.Error("node stringer")
	}
	if FlowID(2).String() != "F2" {
		t.Error("flow stringer")
	}
	for ft, want := range map[FrameType]string{
		FrameData: "DATA", FrameAck: "ACK", FrameRTS: "RTS", FrameCTS: "CTS",
	} {
		if ft.String() != want {
			t.Errorf("frame type stringer %v", ft)
		}
	}
	p := NewPool().Packet(1, 7, 0, 4, 1028, 0)
	f := Frame{Type: FrameData, TxSrc: 0, TxDst: 1, Payload: p}
	if f.String() == "" || p.String() == "" {
		t.Error("empty stringer output")
	}
}
