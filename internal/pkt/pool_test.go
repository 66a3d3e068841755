package pkt

import "testing"

func TestPacketPoolReuse(t *testing.T) {
	pl := NewPool()
	p1 := pl.Packet(1, 7, 0, 4, 1000, 0)
	if p1.refs != 1 {
		t.Fatalf("fresh packet refs = %d, want 1", p1.refs)
	}
	sum1 := p1.Checksum16()
	p1.Release()
	p2 := pl.Packet(2, 9, 1, 5, 1028, 100)
	if p2 != p1 {
		t.Fatal("pool did not reuse the released packet")
	}
	if p2.Flow != 2 || p2.Seq != 9 || p2.Src != 1 || p2.Dst != 5 || p2.Bytes != 1028 || p2.Created != 100 {
		t.Fatalf("reused packet not fully reset: %+v", p2)
	}
	if p2.Checksum16() == sum1 {
		t.Fatal("checksum not recomputed on reuse")
	}
	if pl.Stats.PacketReuses != 1 || pl.Stats.PacketNews != 1 {
		t.Fatalf("stats = %+v, want 1 new + 1 reuse", pl.Stats)
	}
}

func TestPacketRefCounting(t *testing.T) {
	pl := NewPool()
	p := pl.Packet(1, 1, 0, 2, 1000, 0)
	p.Retain() // a queue takes ownership
	p.Release()
	if got := pl.Packet(3, 3, 0, 2, 1000, 0); got == p {
		t.Fatal("packet recycled while a reference was outstanding")
	}
	p.Release() // the queue lets go -> now recyclable
	if got := pl.Packet(4, 4, 0, 2, 1000, 0); got != p {
		t.Fatal("packet not recycled after the last release")
	}
}

func TestReleaseBelowZeroPanics(t *testing.T) {
	p := NewPool().Packet(1, 1, 0, 2, 1000, 0)
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	p.Release()
}

func TestUnpooledPacketSafe(t *testing.T) {
	p := &Packet{Flow: 1, Seq: 1, Dst: 2, Bytes: 1000, refs: 1}
	p.Retain()
	p.Release()
	p.Release() // back to zero references: must not panic or pool
}

func TestFramePool(t *testing.T) {
	pl := NewPool()
	f := pl.Frame()
	f.Type, f.TxSrc, f.TxDst, f.QueueTag, f.Retry = FrameData, 1, 2, 9, true
	pl.PutFrame(f)
	pl.PutFrame(f) // double put is a no-op
	g := pl.Frame()
	if g != f {
		t.Fatal("pool did not reuse the frame")
	}
	if g.Type != 0 || g.TxSrc != 0 || g.TxDst != 0 || g.QueueTag != 0 || g.Retry || g.Payload != nil {
		t.Fatalf("reused frame not zeroed: %+v", g)
	}
	if pl.Frame() == f {
		t.Fatal("double PutFrame handed the same frame out twice")
	}

	manual := &Frame{Type: FrameAck}
	pl.PutFrame(manual) // hand-built frames pass through unharmed
	if pl.Frame() == manual {
		t.Fatal("pool captured a frame it did not hand out")
	}
	pl.PutFrame(nil) // must not panic
}

// TestPoolSteadyStateAllocs: once warm, the get/release cycle for both
// packets and frames is allocation-free.
func TestPoolSteadyStateAllocs(t *testing.T) {
	pl := NewPool()
	pl.Packet(1, 1, 0, 2, 1000, 0).Release()
	pl.PutFrame(pl.Frame())
	if avg := testing.AllocsPerRun(200, func() {
		pl.Packet(1, 2, 0, 2, 1000, 0).Release()
	}); avg != 0 {
		t.Fatalf("packet get/release allocates %.1f objects, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		pl.PutFrame(pl.Frame())
	}); avg != 0 {
		t.Fatalf("frame get/put allocates %.1f objects, want 0", avg)
	}
}
