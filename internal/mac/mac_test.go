package mac

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// pair builds two MACs 200 m apart on a fresh channel.
func pair(t *testing.T, cfg Config) (*sim.Engine, *phy.Channel, *MAC, *MAC) {
	t.Helper()
	eng := sim.NewEngine(1)
	ch := phy.NewChannel(eng, phy.DefaultConfig())
	a := New(eng, ch, 0, phy.Position{X: 0}, cfg)
	b := New(eng, ch, 1, phy.Position{X: 200}, cfg)
	return eng, ch, a, b
}

func packet(seq uint64) *pkt.Packet {
	return pkt.NewPool().Packet(1, seq, 0, 1, 1000, 0)
}

func TestSingleTransfer(t *testing.T) {
	eng, _, a, b := pair(t, DefaultConfig())
	var got []*pkt.Packet
	b.OnDeliver(func(p *pkt.Packet, from pkt.NodeID) {
		if from != 0 {
			t.Errorf("delivered from %v, want N0", from)
		}
		got = append(got, p)
	})
	q := a.NewQueue(1)
	q.Enqueue(packet(1))
	eng.Run(sim.Second)
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	if a.TxAcked != 1 || q.Len() != 0 {
		t.Fatalf("acked=%d len=%d", a.TxAcked, q.Len())
	}
}

func TestManyTransfersFIFO(t *testing.T) {
	eng, _, a, b := pair(t, DefaultConfig())
	var got []uint64
	b.OnDeliver(func(p *pkt.Packet, _ pkt.NodeID) { got = append(got, p.Seq) })
	q := a.NewQueue(1)
	const n = 30
	for i := uint64(1); i <= n; i++ {
		q.Enqueue(pkt.NewPool().Packet(1, i, 0, 1, 1000, 0))
	}
	eng.Run(10 * sim.Second)
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("out of order delivery: %v", got)
		}
	}
}

func TestQueueOverflow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueCap = 5
	eng, _, a, _ := pair(t, cfg)
	var drops int
	a.AddDropHook(func(p *pkt.Packet, r DropReason) {
		if r != DropQueueOverflow {
			t.Errorf("drop reason %v", r)
		}
		drops++
	})
	q := a.NewQueue(1)
	// Stuff the queue synchronously before the simulator runs: only 5 fit.
	ok := 0
	for i := uint64(1); i <= 10; i++ {
		if q.Enqueue(packet(i)) {
			ok++
		}
	}
	if ok != 5 || drops != 5 {
		t.Fatalf("ok=%d drops=%d, want 5/5", ok, drops)
	}
	if q.PeakDepth != 5 {
		t.Fatalf("peak=%d, want 5", q.PeakDepth)
	}
	eng.Run(sim.Second)
}

func TestRetryOnLostAck(t *testing.T) {
	// 100% loss forward: data never arrives; sender must retry up to the
	// limit and then drop with DropRetryExceeded.
	cfg := DefaultConfig()
	eng, ch, a, b := pair(t, cfg)
	ch.SetLinkLoss(0, 1, 1.0)
	delivered := 0
	b.OnDeliver(func(*pkt.Packet, pkt.NodeID) { delivered++ })
	var dropReason DropReason = -1
	a.AddDropHook(func(_ *pkt.Packet, r DropReason) { dropReason = r })
	q := a.NewQueue(1)
	q.Enqueue(packet(1))
	eng.Run(20 * sim.Second)
	if delivered != 0 {
		t.Fatal("packet delivered across dead link")
	}
	if got := int(a.TxData); got != cfg.RetryLimit {
		t.Fatalf("attempts = %d, want %d", got, cfg.RetryLimit)
	}
	if dropReason != DropRetryExceeded {
		t.Fatalf("drop reason = %v, want retry-exceeded", dropReason)
	}
	if q.Len() != 0 {
		t.Fatal("failed packet still queued")
	}
}

func TestRetryRecovers(t *testing.T) {
	// 50% loss: with 7 attempts nearly everything gets through, and the
	// receiver must deduplicate retransmissions caused by lost ACKs.
	eng, ch, a, b := pair(t, DefaultConfig())
	ch.SetLinkLoss(0, 1, 0.5)
	delivered := make(map[uint64]int)
	b.OnDeliver(func(p *pkt.Packet, _ pkt.NodeID) { delivered[p.Seq]++ })
	q := a.NewQueue(1)
	const n = 50
	for i := uint64(1); i <= n; i++ {
		q.Enqueue(pkt.NewPool().Packet(1, i, 0, 1, 1000, 0))
	}
	eng.Run(60 * sim.Second)
	if len(delivered) < n*9/10 {
		t.Fatalf("only %d/%d packets delivered over 50%% loss", len(delivered), n)
	}
	for seq, count := range delivered {
		if count != 1 {
			t.Fatalf("packet %d delivered %d times (dedup broken)", seq, count)
		}
	}
	if a.TxRetries == 0 {
		t.Fatal("no retries over a 50% lossy link")
	}
}

func TestAckLossDuplicateFiltered(t *testing.T) {
	// Loss only on the reverse (ACK) link: data always arrives, ACKs
	// mostly die, so the receiver sees duplicates and must suppress them.
	eng, ch, a, b := pair(t, DefaultConfig())
	ch.SetLinkLoss(1, 0, 0.9)
	delivered := 0
	b.OnDeliver(func(*pkt.Packet, pkt.NodeID) { delivered++ })
	q := a.NewQueue(1)
	for i := uint64(1); i <= 10; i++ {
		q.Enqueue(pkt.NewPool().Packet(1, i, 0, 1, 1000, 0))
	}
	eng.Run(60 * sim.Second)
	if delivered > 10 {
		t.Fatalf("delivered %d > 10: duplicates leaked to upper layer", delivered)
	}
	if b.RxDup == 0 {
		t.Fatal("expected duplicate receptions with 90% ACK loss")
	}
}

func TestCWminClampHardwareCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HardwareCWCap = 1 << 10
	eng, _, a, _ := pair(t, cfg)
	_ = eng
	q := a.NewQueue(1)
	q.SetCWmin(1 << 12)
	if q.CWmin() != 1<<10 {
		t.Fatalf("cw = %d, want hardware cap 1024", q.CWmin())
	}
	q.SetCWmin(0)
	if q.CWmin() != 1 {
		t.Fatalf("cw = %d, want floor 1", q.CWmin())
	}
	q.SetCWmin(1 << 20)
	if q.CWmin() != 1<<10 {
		t.Fatal("absolute clamp then hardware cap not applied")
	}
}

func TestCWminClampAbsolute(t *testing.T) {
	eng, _, a, _ := pair(t, DefaultConfig())
	_ = eng
	q := a.NewQueue(1)
	q.SetCWmin(1 << 20)
	if q.CWmin() != AbsoluteCWmax {
		t.Fatalf("cw = %d, want 2^15", q.CWmin())
	}
}

func TestRoundRobinQueues(t *testing.T) {
	// One sender with two queues toward two receivers: service should
	// alternate rather than starve either queue.
	eng := sim.NewEngine(1)
	ch := phy.NewChannel(eng, phy.DefaultConfig())
	a := New(eng, ch, 0, phy.Position{X: 0}, DefaultConfig())
	b := New(eng, ch, 1, phy.Position{X: 200}, DefaultConfig())
	c := New(eng, ch, 2, phy.Position{X: 0, Y: 200}, DefaultConfig())
	nb, nc := 0, 0
	b.OnDeliver(func(*pkt.Packet, pkt.NodeID) { nb++ })
	c.OnDeliver(func(*pkt.Packet, pkt.NodeID) { nc++ })
	qb := a.NewQueue(1)
	qc := a.NewQueue(2)
	for i := uint64(1); i <= 20; i++ {
		qb.Enqueue(pkt.NewPool().Packet(1, i, 0, 1, 1000, 0))
		qc.Enqueue(pkt.NewPool().Packet(2, i, 0, 2, 1000, 0))
	}
	eng.Run(5 * sim.Second)
	if nb != 20 || nc != 20 {
		t.Fatalf("nb=%d nc=%d, want 20/20", nb, nc)
	}
}

func TestTapSeesAllFrames(t *testing.T) {
	// A third node in range taps both data and ACK frames of an exchange
	// it is not part of.
	eng := sim.NewEngine(1)
	ch := phy.NewChannel(eng, phy.DefaultConfig())
	a := New(eng, ch, 0, phy.Position{X: 0}, DefaultConfig())
	b := New(eng, ch, 1, phy.Position{X: 200}, DefaultConfig())
	w := New(eng, ch, 2, phy.Position{X: 100, Y: 100}, DefaultConfig())
	_ = b
	var data, acks int
	w.AddTap(func(f *pkt.Frame, ci pkt.CaptureInfo) {
		if !ci.OnAir || ci.Listener != 2 {
			t.Errorf("capture info wrong: %+v", ci)
		}
		switch f.Type {
		case pkt.FrameData:
			data++
		case pkt.FrameAck:
			acks++
		}
	})
	q := a.NewQueue(1)
	for i := uint64(1); i <= 5; i++ {
		q.Enqueue(pkt.NewPool().Packet(1, i, 0, 1, 1000, 0))
	}
	eng.Run(5 * sim.Second)
	if data != 5 || acks != 5 {
		t.Fatalf("tap saw data=%d acks=%d, want 5/5", data, acks)
	}
}

func TestBackoffContention(t *testing.T) {
	// Two saturated senders toward a common receiver: both must make
	// progress (no starvation, no deadlock) and their shares should be
	// roughly even.
	eng := sim.NewEngine(1)
	ch := phy.NewChannel(eng, phy.DefaultConfig())
	cfg := DefaultConfig()
	cfg.QueueCap = 1000
	a := New(eng, ch, 0, phy.Position{X: 0}, cfg)
	b := New(eng, ch, 1, phy.Position{X: 100, Y: 100}, cfg)
	r := New(eng, ch, 2, phy.Position{X: 100}, cfg)
	got := map[pkt.NodeID]int{}
	r.OnDeliver(func(p *pkt.Packet, from pkt.NodeID) { got[from]++ })
	qa := a.NewQueue(2)
	qb := b.NewQueue(2)
	for i := uint64(1); i <= 400; i++ {
		qa.Enqueue(pkt.NewPool().Packet(1, i, 0, 2, 1000, 0))
		qb.Enqueue(pkt.NewPool().Packet(2, i, 1, 2, 1000, 0))
	}
	eng.Run(60 * sim.Second)
	if got[0] == 0 || got[1] == 0 {
		t.Fatalf("starvation: %v", got)
	}
	ratio := float64(got[0]) / float64(got[1])
	if ratio < 0.7 || ratio > 1.4 {
		t.Fatalf("unfair shares %v (ratio %.2f)", got, ratio)
	}
}

func TestHigherCWGetsLessAccess(t *testing.T) {
	// The control surface EZ-Flow relies on: quadrupling a sender's CWmin
	// must reduce its share of a contended channel.
	eng := sim.NewEngine(1)
	ch := phy.NewChannel(eng, phy.DefaultConfig())
	cfg := DefaultConfig()
	cfg.QueueCap = 20000
	a := New(eng, ch, 0, phy.Position{X: 0}, cfg)
	b := New(eng, ch, 1, phy.Position{X: 100, Y: 100}, cfg)
	r := New(eng, ch, 2, phy.Position{X: 100}, cfg)
	got := map[pkt.NodeID]int{}
	r.OnDeliver(func(p *pkt.Packet, from pkt.NodeID) { got[from]++ })
	qa := a.NewQueue(2)
	qa.SetCWmin(256)
	qb := b.NewQueue(2)
	for i := uint64(1); i <= 20000; i++ {
		qa.Enqueue(pkt.NewPool().Packet(1, i, 0, 2, 1000, 0))
		qb.Enqueue(pkt.NewPool().Packet(2, i, 1, 2, 1000, 0))
	}
	eng.Run(60 * sim.Second)
	if got[0] == 0 {
		t.Fatal("high-CW sender fully starved")
	}
	if float64(got[0]) > 0.7*float64(got[1]) {
		t.Fatalf("CWmin had no effect: %v", got)
	}
}

func TestRTSCTSExchange(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseRTSCTS = true
	eng, _, a, b := pair(t, cfg)
	delivered := 0
	b.OnDeliver(func(*pkt.Packet, pkt.NodeID) { delivered++ })
	q := a.NewQueue(1)
	for i := uint64(1); i <= 10; i++ {
		q.Enqueue(pkt.NewPool().Packet(1, i, 0, 1, 1000, 0))
	}
	eng.Run(10 * sim.Second)
	if delivered != 10 {
		t.Fatalf("RTS/CTS mode delivered %d/10", delivered)
	}
}

// TestRTSNavReservesDeclaredStampBytes pins the NAV rule: an RTS reserves
// the most on-air bytes any registered stamp declared, and a stamp that
// declares none leaves the NAV as if no stamp were registered.
func TestRTSNavReservesDeclaredStampBytes(t *testing.T) {
	nav := func(stampBytes ...int) sim.Time {
		cfg := DefaultConfig()
		cfg.UseRTSCTS = true
		eng, _, a, b := pair(t, cfg)
		for _, n := range stampBytes {
			a.AddTxStamp(func(*pkt.Frame) {}, n)
		}
		var got sim.Time
		b.AddTap(func(f *pkt.Frame, _ pkt.CaptureInfo) {
			if f.Type == pkt.FrameRTS && got == 0 {
				got = f.NAV
			}
		})
		a.NewQueue(1).Enqueue(packet(1))
		eng.Run(sim.Second)
		if got == 0 {
			t.Fatal("no RTS overheard")
		}
		return got
	}
	none := nav()
	if got := nav(0, 0); got != none {
		t.Errorf("0-byte stamps reserve NAV %v, want %v as without stamps", got, none)
	}
	ch := phy.NewChannel(sim.NewEngine(1), phy.DefaultConfig())
	want := none + ch.AirTime(1000+pkt.MACHeaderBytes+pkt.BPHeaderBytes) - ch.AirTime(1000+pkt.MACHeaderBytes)
	if got := nav(0, pkt.BPHeaderBytes, 0); got != want {
		t.Errorf("NAV with a %d-byte stamp = %v, want %v", pkt.BPHeaderBytes, got, want)
	}
}

func TestConfigDefaults(t *testing.T) {
	eng := sim.NewEngine(1)
	ch := phy.NewChannel(eng, phy.DefaultConfig())
	m := New(eng, ch, 0, phy.Position{}, Config{})
	if m.cfg.CWmin != DefaultCWmin || m.cfg.RetryLimit != DefaultRetryLimit ||
		m.cfg.QueueCap != DefaultQueueCap {
		t.Fatalf("zero config not defaulted: %+v", m.cfg)
	}
	if m.ID() != 0 {
		t.Fatal("ID")
	}
	if m.String() == "" {
		t.Fatal("String")
	}
}

// Property: for any CWmin request, the effective value is within
// [1, min(AbsoluteCWmax, cap)] — the CAA depends on this clamp.
func TestPropertyCWClamp(t *testing.T) {
	f := func(req int32, capRaw uint16) bool {
		eng := sim.NewEngine(1)
		ch := phy.NewChannel(eng, phy.DefaultConfig())
		cfg := DefaultConfig()
		cap := int(capRaw)
		cfg.HardwareCWCap = cap
		m := New(eng, ch, 0, phy.Position{}, cfg)
		q := m.NewQueue(1)
		q.SetCWmin(int(req))
		got := q.CWmin()
		if got < 1 || got > AbsoluteCWmax {
			return false
		}
		if cap > 0 && got > cap {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

// Property: conservation — everything enqueued is either still queued,
// delivered, or dropped (overflow/retry), under random loss.
func TestPropertyPacketConservation(t *testing.T) {
	f := func(lossRaw uint8, nRaw uint8) bool {
		loss := float64(lossRaw%90) / 100
		n := int(nRaw%100) + 1
		eng := sim.NewEngine(int64(lossRaw)*251 + int64(nRaw))
		ch := phy.NewChannel(eng, phy.DefaultConfig())
		a := New(eng, ch, 0, phy.Position{X: 0}, DefaultConfig())
		b := New(eng, ch, 1, phy.Position{X: 200}, DefaultConfig())
		ch.SetLinkLoss(0, 1, loss)
		delivered := 0
		b.OnDeliver(func(*pkt.Packet, pkt.NodeID) { delivered++ })
		drops := 0
		a.AddDropHook(func(*pkt.Packet, DropReason) { drops++ })
		q := a.NewQueue(1)
		accepted := 0
		for i := uint64(1); i <= uint64(n); i++ {
			if q.Enqueue(pkt.NewPool().Packet(1, i, 0, 1, 1000, 0)) {
				accepted++
			}
		}
		eng.Run(120 * sim.Second)
		return accepted+drops == n && delivered+drops+q.Len() == n ||
			// accepted excludes overflow drops, which the hook counts too
			delivered+q.Len()+drops == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Fatal(err)
	}
}
