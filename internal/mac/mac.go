// Package mac implements the IEEE 802.11 Distributed Coordination Function
// (DCF) over the phy channel: DIFS/SIFS/slot timing, uniform backoff in
// [0, cw-1] with freezing, exponential retry backoff, positive ACKs with a
// retry limit, optional RTS/CTS, and per-node FIFO transmit queues of
// bounded capacity (50 packets by default, the "standard MAC buffer" the
// paper calls out).
//
// Two properties matter to EZ-Flow and are first-class here:
//
//   - Each node can maintain several transmit queues (one per successor
//     plus one for self-originated traffic, as §3.1 of the paper requires),
//     and each queue carries its own CWmin that an external controller may
//     change at any time — the only control surface EZ-Flow uses, mirroring
//     the MadWifi iwconfig knob. An optional hardware cap reproduces the
//     testbed's 2^10 ceiling.
//
//   - Every frame decoded at a node is passed to promiscuous taps
//     (monitor mode), which is how the Buffer Occupancy Estimator overhears
//     the successor's forwarding without message passing.
package mac

import (
	"fmt"

	"ezflow/internal/obs"
	"ezflow/internal/phy"
	"ezflow/internal/pkt"
	"ezflow/internal/sim"
)

// Timing constants for IEEE 802.11b (long preamble handled by phy).
const (
	SlotTime = 20 * sim.Microsecond
	SIFS     = 10 * sim.Microsecond
	DIFS     = SIFS + 2*SlotTime // 50 us
)

// Default contention and queueing parameters.
const (
	// DefaultCWmin is the standard 802.11b minimum contention window.
	DefaultCWmin = 32
	// RetryCWmax bounds the exponential retry backoff.
	RetryCWmax = 1024
	// AbsoluteCWmax is the largest value any contention window may take
	// (the paper's maxcw = 2^15).
	AbsoluteCWmax = 1 << 15
	// DefaultRetryLimit is the number of transmission attempts before a
	// frame is dropped.
	DefaultRetryLimit = 7
	// DefaultQueueCap is the standard MAC buffer of 50 packets.
	DefaultQueueCap = 50
)

// Config parameterises a MAC instance.
type Config struct {
	CWmin      int  // initial per-queue CWmin (power of two)
	RetryLimit int  // attempts before dropping
	QueueCap   int  // per-queue capacity in packets
	UseRTSCTS  bool // enable the RTS/CTS exchange (off in the paper)
	// HardwareCWCap, if non-zero, silently clamps any CWmin set on a
	// queue, reproducing the MadWifi 2^10 limitation of §4.1.
	HardwareCWCap int
}

// DefaultConfig returns the paper's MAC settings.
func DefaultConfig() Config {
	return Config{
		CWmin:      DefaultCWmin,
		RetryLimit: DefaultRetryLimit,
		QueueCap:   DefaultQueueCap,
	}
}

// DeliverFunc receives packets whose MAC destination is this node.
type DeliverFunc func(p *pkt.Packet, from pkt.NodeID)

// TapFunc observes every frame decoded at this node (monitor mode).
type TapFunc func(f *pkt.Frame, ci pkt.CaptureInfo)

// TxStampFunc runs on every outgoing data frame — every attempt, retries
// included — before the frame's air time is computed, so it may piggyback
// header fields (Frame.HasBP/BPLen, Frame.QueueTag) that change what goes
// on the air. Controllers register stamps via AddTxStamp; the frame's
// Retry bit is already set when stamps run, so a stamp that only observes
// first attempts checks !f.Retry.
type TxStampFunc func(f *pkt.Frame)

// DropFunc observes packets dropped by this MAC with a reason.
type DropFunc func(p *pkt.Packet, reason DropReason)

// DropReason explains a packet drop.
type DropReason int

const (
	// DropQueueOverflow marks a packet rejected by a full transmit queue.
	DropQueueOverflow DropReason = iota
	// DropRetryExceeded marks a frame abandoned after the retry limit.
	DropRetryExceeded
	// DropHalted marks a packet discarded because its node's radio was
	// powered off with queue flushing (node-churn fault injection).
	DropHalted
)

// String names the drop reason for logs and reports.
func (r DropReason) String() string {
	switch r {
	case DropQueueOverflow:
		return "queue-overflow"
	case DropRetryExceeded:
		return "retry-exceeded"
	case DropHalted:
		return "halted"
	default:
		return "unknown"
	}
}

// Queue is a bounded FIFO transmit queue with its own CWmin — the knob
// IEEE 802.11e EDCA differentiates access categories by, which the
// paper's §7 extension repurposes as per-successor queues.
type Queue struct {
	mac   *MAC
	id    int
	next  pkt.NodeID // MAC next hop for everything in this queue
	buf   []*pkt.Packet
	cwMin int

	// onEnqueue/onDequeue are the controller hooks of internal/ctl: they
	// observe each packet accepted into the queue and each packet leaving
	// it through the MAC (acknowledged or dropped at the retry limit).
	// Flush bypasses onDequeue: a flushed queue is a halted radio's, not a
	// scheduling event. Nil hooks cost one branch.
	onEnqueue func(*pkt.Packet)
	onDequeue func(*pkt.Packet)

	// Enqueued counts packets accepted into the queue.
	Enqueued uint64
	// Dropped counts packets the queue itself discarded (overflow plus
	// flush; retry-limit drops are the MAC's, see DroppedRetry).
	Dropped uint64
	// Dequeued counts packets that left through the MAC.
	Dequeued uint64
	// PeakDepth is the high-water mark of the queue depth.
	PeakDepth int

	// Per-reason drop counters (observability; Dropped keeps its historic
	// overflow+flush semantics). DroppedRetry counts head packets the MAC
	// abandoned at the retry limit while this queue owned the attempt.
	DroppedOverflow uint64
	// DroppedFlush counts packets discarded by Flush (halted radio).
	DroppedFlush uint64
	// DroppedRetry counts retry-limit drops charged to this queue.
	DroppedRetry uint64
	// Retries counts re-transmission attempts of this queue's head
	// packets — the per-link retry signal of the observability layer.
	Retries uint64
	// CWChanges counts effective SetCWmin changes — how often a
	// controller actually moved this queue's window.
	CWChanges uint64
}

// NextHop reports the queue's MAC next hop.
func (q *Queue) NextHop() pkt.NodeID { return q.next }

// Len reports the instantaneous queue depth (the b_k of the paper).
func (q *Queue) Len() int { return len(q.buf) }

// CWmin reports the queue's current minimum contention window.
func (q *Queue) CWmin() int { return q.cwMin }

// SetHooks registers the queue's enqueue/dequeue observers (either may be
// nil). At most one pair is supported — a second call replaces the first —
// because exactly one controller owns a queue at a time.
func (q *Queue) SetHooks(onEnqueue, onDequeue func(*pkt.Packet)) {
	q.onEnqueue = onEnqueue
	q.onDequeue = onDequeue
}

// SetCWmin updates the queue's minimum contention window, clamping to the
// hardware cap if one is configured and to the absolute bound 2^15.
// Values below 1 are rejected. This is the only knob EZ-Flow turns.
func (q *Queue) SetCWmin(cw int) {
	if cw < 1 {
		cw = 1
	}
	if cw > AbsoluteCWmax {
		cw = AbsoluteCWmax
	}
	if cap := q.mac.cfg.HardwareCWCap; cap > 0 && cw > cap {
		cw = cap
	}
	if cw != q.cwMin {
		q.CWChanges++
	}
	q.cwMin = cw
}

// Enqueue appends p; it reports false (and counts a drop) on overflow.
// On success the queue takes its own reference on p (released when the
// packet leaves the queue), so callers keep whatever references they hold.
func (q *Queue) Enqueue(p *pkt.Packet) bool {
	if len(q.buf) >= q.mac.cfg.QueueCap {
		q.overflow(p.Flow, p.Seq)
		q.mac.notifyDrop(p, DropQueueOverflow)
		return false
	}
	p.Retain()
	q.buf = append(q.buf, p)
	q.Enqueued++
	if len(q.buf) > q.PeakDepth {
		q.PeakDepth = len(q.buf)
	}
	q.mac.record(obs.KindEnqueue, obs.CauseNone, q.next, p)
	if q.onEnqueue != nil {
		q.onEnqueue(p)
	}
	q.mac.kick()
	return true
}

// DropIfFull counts the overflow drop of packet seq of flow without the
// packet, when the queue is full and no drop hook (AddDropHook) needs
// the packet. It reports whether it dropped; on false the caller builds
// the packet and Enqueues it as usual. The counters and the flight
// recorder's drop record come out as Enqueue's overflow branch writes
// them, so a traffic source that checks here first draws no pooled
// packet for an arrival the full queue would only discard.
func (q *Queue) DropIfFull(flow pkt.FlowID, seq uint64) bool {
	if len(q.buf) < q.mac.cfg.QueueCap || len(q.mac.drops) > 0 {
		return false
	}
	q.overflow(flow, seq)
	return true
}

// overflow counts and records one overflow drop.
func (q *Queue) overflow(flow pkt.FlowID, seq uint64) {
	q.Dropped++
	q.DroppedOverflow++
	if rec := q.mac.rec; rec != nil {
		rec.Record(q.mac.eng.Now(), obs.KindDrop, obs.CauseQueueOverflow, q.mac.id, q.next, flow, seq)
	}
}

// Flush discards every buffered packet, releasing the queue's references
// and notifying drop hooks with DropHalted. It reports how many packets
// were discarded. The dynamics layer uses it for node churn with drop
// semantics; a Flush never runs while one of the queue's packets is the
// MAC's current attempt unless the MAC was halted first.
func (q *Queue) Flush() int {
	n := len(q.buf)
	for i, p := range q.buf {
		q.Dropped++
		q.DroppedFlush++
		q.mac.record(obs.KindDrop, obs.CauseHalted, q.next, p)
		q.mac.notifyDrop(p, DropHalted)
		p.Release()
		q.buf[i] = nil
	}
	q.buf = q.buf[:0]
	return n
}

func (q *Queue) head() *pkt.Packet {
	if len(q.buf) == 0 {
		return nil
	}
	return q.buf[0]
}

func (q *Queue) pop() *pkt.Packet {
	p := q.buf[0]
	copy(q.buf, q.buf[1:])
	q.buf[len(q.buf)-1] = nil
	q.buf = q.buf[:len(q.buf)-1]
	q.Dequeued++
	if q.onDequeue != nil {
		q.onDequeue(p)
	}
	return p
}

// txState enumerates the transmitter's DCF state.
type txState int

const (
	stIdle      txState = iota // nothing to send
	stDefer                    // waiting for the medium + DIFS + backoff
	stCountdown                // backoff slots actively counting down
	stTxData                   // data (or RTS) frame on the air
	stWaitCTS                  // RTS sent, waiting for CTS
	stWaitAck                  // data sent, waiting for ACK
	stTxCtl                    // sending a control response (ACK/CTS)
)

// MAC is one station's 802.11 DCF instance.
type MAC struct {
	id   pkt.NodeID
	eng  *sim.Engine
	ch   *phy.Channel
	st   *phy.Station // this node's PHY handle; transmissions skip the id lookup
	pool *pkt.Pool
	cfg  Config

	queues  []*Queue
	rr      int // round-robin cursor over queues
	deliver DeliverFunc
	taps    []TapFunc
	stamps  []TxStampFunc
	// stampBytes is the most on-air bytes any registered stamp may add
	// to a data frame; an RTS reserves them in its NAV.
	stampBytes int
	drops      []DropFunc

	state      txState
	down       bool     // radio halted (node churn); see SetDown
	txEnd      sim.Time // when this node's latest own transmission leaves the air
	busyMedium bool
	useEIFS    bool     // defer EIFS (not DIFS) after an erroneous reception
	slots      int      // backoff slots remaining
	cntStart   sim.Time // when the current countdown began
	cntIFS     sim.Time // the inter-frame space used by this countdown
	timer      sim.Timer
	cur        *Queue   // queue that owns the current attempt
	attempts   int      // attempts for the head frame of cur
	retryCW    int      // current retry contention window
	navUntil   sim.Time // virtual carrier sense (RTS/CTS)
	pendingCtl *pkt.Frame
	ctlSaved   txState    // state to restore after a control response
	lastSeq    []dupEntry // duplicate filter, one entry per (transmitter, flow) stream

	// Bound callbacks, built once in New so the per-frame timers (backoff
	// expiry, ACK timeout, air-time completion, SIFS-deferred responses)
	// schedule without allocating a closure.
	accessWonFn  func()
	ackTimeoutFn func()
	dataEndFn    func()
	rtsEndFn     func()
	sendDataFn   func()
	sendCtlFn    func()
	ctlDoneFn    func()
	kickFn       func()

	// Stats
	TxData    uint64
	TxRetries uint64
	TxAcked   uint64
	TxFailed  uint64
	RxData    uint64
	RxDup     uint64

	// rec is the attached packet flight recorder; nil (the default) costs
	// one branch per lifecycle event. See SetRecorder.
	rec *obs.FlightRecorder
}

// New creates a MAC for node id at pos, registering it on the channel.
func New(eng *sim.Engine, ch *phy.Channel, id pkt.NodeID, pos phy.Position, cfg Config) *MAC {
	if cfg.CWmin <= 0 {
		cfg.CWmin = DefaultCWmin
	}
	if cfg.RetryLimit <= 0 {
		cfg.RetryLimit = DefaultRetryLimit
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = DefaultQueueCap
	}
	m := &MAC{
		id:   id,
		eng:  eng,
		ch:   ch,
		pool: ch.Pool(),
		cfg:  cfg,
	}
	m.accessWonFn = m.accessWon
	m.ackTimeoutFn = m.ackTimeout
	m.dataEndFn = func() {
		if m.state == stTxData {
			m.state = stWaitAck
		}
	}
	m.rtsEndFn = func() {
		if m.state == stTxData {
			m.state = stWaitCTS
		}
	}
	m.sendDataFn = m.sendData
	m.sendCtlFn = m.sendCtl
	m.ctlDoneFn = m.ctlDone
	m.kickFn = m.kick
	m.st = ch.AddNode(id, pos, m)
	return m
}

// dupEntry is the duplicate filter's record of one (transmitter, flow)
// stream: the sequence number last delivered from it. A station receives
// from few streams, so the filter scans a slice instead of hashing.
type dupEntry struct {
	src  pkt.NodeID
	flow pkt.FlowID
	seq  uint64
}

// duplicate reports whether seq repeats the last sequence number
// delivered on the (src, flow) stream, recording seq as the stream's
// last when it does not.
func (m *MAC) duplicate(src pkt.NodeID, flow pkt.FlowID, seq uint64) bool {
	for i := range m.lastSeq {
		e := &m.lastSeq[i]
		if e.src == src && e.flow == flow {
			if e.seq == seq {
				return true
			}
			e.seq = seq
			return false
		}
	}
	m.lastSeq = append(m.lastSeq, dupEntry{src: src, flow: flow, seq: seq})
	return false
}

// ID reports the node id.
func (m *MAC) ID() pkt.NodeID { return m.id }

// OnDeliver sets the callback for packets MAC-addressed to this node.
func (m *MAC) OnDeliver(f DeliverFunc) { m.deliver = f }

// AddTap registers a promiscuous tap (monitor mode).
func (m *MAC) AddTap(t TapFunc) { m.taps = append(m.taps, t) }

// AddTxStamp registers a per-attempt outgoing-frame stamp (see
// TxStampFunc) that adds at most bytes on-air bytes to a data frame (0 for
// a stamp that only observes or sets off-air fields).
func (m *MAC) AddTxStamp(s TxStampFunc, bytes int) {
	m.stamps = append(m.stamps, s)
	m.stampBytes = max(m.stampBytes, bytes)
}

// AddDropHook registers a drop observer.
func (m *MAC) AddDropHook(d DropFunc) { m.drops = append(m.drops, d) }

// SetRecorder attaches a packet flight recorder (nil detaches). Every
// queue lifecycle event at this MAC — enqueue, tx-attempt, retry,
// acknowledged dequeue, drop with reason — is recorded. Recording writes
// only into the recorder's ring, so attaching one cannot change the
// simulation's behaviour.
func (m *MAC) SetRecorder(rec *obs.FlightRecorder) { m.rec = rec }

// record writes one flight-recorder event for p at this node. The nil
// check lives here (not in obs) so the disabled path pays a branch and
// no call.
func (m *MAC) record(k obs.Kind, cause obs.Cause, peer pkt.NodeID, p *pkt.Packet) {
	if m.rec != nil {
		m.rec.Record(m.eng.Now(), k, cause, m.id, peer, p.Flow, p.Seq)
	}
}

func (m *MAC) notifyDrop(p *pkt.Packet, r DropReason) {
	for _, d := range m.drops {
		d(p, r)
	}
}

// NewQueue creates a transmit queue toward next with the MAC's default
// CWmin. Queues are served in round-robin order.
func (m *MAC) NewQueue(next pkt.NodeID) *Queue {
	q := &Queue{mac: m, id: len(m.queues), next: next, cwMin: m.cfg.CWmin}
	m.queues = append(m.queues, q)
	return q
}

// Queues returns all transmit queues.
func (m *MAC) Queues() []*Queue { return m.queues }

// QueuedTo reports the packets buffered across every queue whose next hop
// is next — the per-successor backlog a backpressure controller
// advertises. It allocates nothing.
func (m *MAC) QueuedTo(next pkt.NodeID) int {
	n := 0
	for _, q := range m.queues {
		if q.next == next {
			n += len(q.buf)
		}
	}
	return n
}

// SetDown powers the station's radio off (true) or back on (false) — the
// node-churn primitive of the dynamics layer. A halted MAC abandons its
// current access attempt, sends no frames (not even ACKs), and ignores
// everything it would otherwise decode, so neighbours see it exactly as a
// dead station: their retries time out and their frames drop. Queued
// packets are kept by default and drain when the radio returns; callers
// that want a cold restart flush the queues explicitly (FlushQueues).
// A frame already on the air when the radio goes down completes its
// flight — receivers cannot tell, and the engine's event for it is
// already committed; a restart within that flight defers its first
// channel access until the flight ends, since the radio is half-duplex.
func (m *MAC) SetDown(down bool) {
	if m.down == down {
		return
	}
	m.down = down
	if down {
		m.timer.Cancel()
		if m.pendingCtl != nil {
			m.pool.PutFrame(m.pendingCtl)
			m.pendingCtl = nil
		}
		m.cur = nil
		m.attempts = 0
		m.retryCW = 0
		m.state = stIdle
		return
	}
	if m.eng.Now() < m.txEnd {
		m.eng.ScheduleFuncAt(m.txEnd, m.kickFn)
		return
	}
	m.kick()
}

// Down reports whether the radio is currently halted.
func (m *MAC) Down() bool { return m.down }

// FlushQueues discards every buffered packet in every queue, counting
// each as a DropHalted. It returns the number of packets discarded.
func (m *MAC) FlushQueues() int {
	n := 0
	for _, q := range m.queues {
		n += q.Flush()
	}
	return n
}

// TotalQueued reports the number of packets buffered across all queues.
func (m *MAC) TotalQueued() int {
	n := 0
	for _, q := range m.queues {
		n += len(q.buf)
	}
	return n
}

// --- phy.Radio implementation -------------------------------------------

// CarrierBusy implements phy.Radio.
func (m *MAC) CarrierBusy(busy bool) {
	m.busyMedium = busy
	if busy {
		m.freeze()
		return
	}
	m.resume()
}

// Receive implements phy.Radio: frames MAC-addressed to this node.
func (m *MAC) Receive(f *pkt.Frame) {
	if m.down {
		return
	}
	switch f.Type {
	case pkt.FrameData:
		m.rxData(f)
	case pkt.FrameAck:
		m.rxAck(f)
	case pkt.FrameRTS:
		m.rxRTS(f)
	case pkt.FrameCTS:
		m.rxCTS(f)
	}
}

// ReceiveError implements phy.Radio: a decodable frame was destroyed by a
// collision, so the next channel access defers EIFS instead of DIFS.
func (m *MAC) ReceiveError() {
	if m.down {
		return
	}
	m.useEIFS = true
}

// Overhear implements phy.Radio: every decoded frame, for taps and NAV.
func (m *MAC) Overhear(f *pkt.Frame, ci pkt.CaptureInfo) {
	if m.down {
		return
	}
	// A correctly decoded frame resynchronises the station: EIFS no
	// longer applies (IEEE 802.11 §9.2.3.4).
	m.useEIFS = false
	// Virtual carrier sense from overheard RTS/CTS addressed elsewhere.
	if (f.Type == pkt.FrameRTS || f.Type == pkt.FrameCTS) && f.TxDst != m.id {
		if until := m.eng.Now() + f.NAV; until > m.navUntil {
			m.navUntil = until
		}
	}
	for _, t := range m.taps {
		t(f, ci)
	}
}

// --- receive paths --------------------------------------------------------

func (m *MAC) rxData(f *pkt.Frame) {
	// Always acknowledge a correctly decoded unicast data frame, even a
	// duplicate (the original ACK may have been lost).
	ack := m.pool.Frame()
	ack.Type, ack.TxSrc, ack.TxDst = pkt.FrameAck, m.id, f.TxSrc
	m.scheduleCtl(ack)
	p := f.Payload
	if p == nil {
		return
	}
	if m.duplicate(f.TxSrc, p.Flow, p.Seq) {
		m.RxDup++
		return
	}
	m.RxData++
	if m.deliver != nil {
		m.deliver(p, f.TxSrc)
	}
}

func (m *MAC) rxAck(f *pkt.Frame) {
	if m.state != stWaitAck || m.cur == nil || f.TxSrc != m.cur.next {
		return
	}
	m.timer.Cancel()
	m.TxAcked++
	if m.rec != nil {
		m.record(obs.KindDequeue, obs.CauseAcked, m.cur.next, m.cur.head())
	}
	m.cur.pop().Release()
	m.cur = nil
	m.attempts = 0
	m.retryCW = 0
	m.state = stIdle
	m.kick()
}

func (m *MAC) rxRTS(f *pkt.Frame) {
	if m.eng.Now() < m.navUntil {
		return // our NAV says the medium is reserved; stay silent
	}
	nav := f.NAV - SIFS - m.ch.AirTime(pkt.CTSBytes)
	if nav < 0 {
		nav = 0
	}
	cts := m.pool.Frame()
	cts.Type, cts.TxSrc, cts.TxDst, cts.NAV = pkt.FrameCTS, m.id, f.TxSrc, nav
	m.scheduleCtl(cts)
}

func (m *MAC) rxCTS(f *pkt.Frame) {
	if m.state != stWaitCTS || m.cur == nil || f.TxSrc != m.cur.next {
		return
	}
	m.timer.Cancel()
	// Send the data frame after SIFS.
	m.state = stTxCtl // transiently; sendData moves us to stTxData
	m.eng.ScheduleFuncFixed(SIFS, m.sendDataFn)
}

// scheduleCtl queues a control response (ACK or CTS) to go out after SIFS.
// At most one response is pending at a time; a newer one replaces (and
// recycles) an older response that has not gone out yet.
func (m *MAC) scheduleCtl(f *pkt.Frame) {
	if m.pendingCtl != nil {
		m.pool.PutFrame(m.pendingCtl)
	}
	m.pendingCtl = f
	m.eng.ScheduleFuncFixed(SIFS, m.sendCtlFn)
}

// sendCtl fires SIFS after a control response was queued and puts it on
// the air if the transmitter is free.
func (m *MAC) sendCtl() {
	ctl := m.pendingCtl
	m.pendingCtl = nil
	if ctl == nil {
		return
	}
	if m.state == stTxData || m.state == stTxCtl || m.state == stWaitCTS {
		m.pool.PutFrame(ctl)
		return // transmitter occupied; give up on the response
	}
	// A control response preempts any countdown in progress; the frozen
	// backoff resumes afterwards.
	prev := m.state
	if prev == stCountdown {
		m.freeze()
		m.state = stDefer
	}
	m.ctlSaved = m.state
	m.state = stTxCtl
	end := m.ch.TransmitFrom(m.st, ctl)
	m.txEnd = end
	m.eng.ScheduleFuncFixed(end-m.eng.Now(), m.ctlDoneFn)
}

// ctlDone restores the pre-response state once the control frame has left
// the air.
func (m *MAC) ctlDone() {
	if m.state != stTxCtl {
		return
	}
	m.state = m.ctlSaved
	if m.cur != nil || m.anyBacklog() {
		if m.state == stIdle {
			m.kick()
		} else {
			m.resume()
		}
	} else {
		m.state = stIdle
	}
}

// --- transmit path ---------------------------------------------------------

// kick starts an access attempt if the transmitter is idle and traffic is
// waiting.
func (m *MAC) kick() {
	if m.state != stIdle || m.down {
		return
	}
	q := m.selectQueue()
	if q == nil {
		return
	}
	m.cur = q
	m.attempts = 0
	m.retryCW = q.cwMin
	m.beginContention()
}

// selectQueue picks the next non-empty queue in round-robin order.
func (m *MAC) selectQueue() *Queue {
	n := len(m.queues)
	for i := 0; i < n; i++ {
		q := m.queues[(m.rr+i)%n]
		if len(q.buf) > 0 {
			m.rr = (m.rr + i + 1) % n
			return q
		}
	}
	return nil
}

func (m *MAC) anyBacklog() bool {
	for _, q := range m.queues {
		if len(q.buf) > 0 {
			return true
		}
	}
	return false
}

// beginContention draws a fresh backoff and starts deferring.
func (m *MAC) beginContention() {
	cw := m.retryCW
	if cw < 1 {
		cw = 1
	}
	m.slots = m.eng.Uniform(cw)
	m.state = stDefer
	m.resume()
}

// resume (re)starts the DIFS + backoff countdown if the medium allows.
func (m *MAC) resume() {
	if m.state != stDefer && m.state != stCountdown {
		return
	}
	if m.busyMedium {
		m.state = stDefer
		return
	}
	if m.timer.Pending() {
		return
	}
	ifs := DIFS
	if m.useEIFS {
		ifs = SIFS + m.ch.AirTime(pkt.AckBytes) + DIFS // EIFS
	}
	wait := ifs + sim.Time(m.slots)*SlotTime
	if nav := m.navUntil - m.eng.Now(); nav > 0 {
		wait += nav
	}
	m.state = stCountdown
	m.cntStart = m.eng.Now()
	m.cntIFS = ifs
	m.timer = m.eng.Schedule(wait, m.accessWonFn)
}

// freeze suspends the countdown, crediting fully elapsed slots.
func (m *MAC) freeze() {
	if m.state != stCountdown {
		return
	}
	m.timer.Cancel()
	elapsed := m.eng.Now() - m.cntStart
	if elapsed > m.cntIFS {
		done := int((elapsed - m.cntIFS) / SlotTime)
		if done > m.slots {
			done = m.slots
		}
		m.slots -= done
	}
	m.state = stDefer
}

// accessWon fires when DIFS+backoff elapsed with an idle medium.
func (m *MAC) accessWon() {
	if m.state != stCountdown {
		return
	}
	m.slots = 0
	if m.cur == nil || m.cur.head() == nil {
		m.state = stIdle
		m.kick()
		return
	}
	if m.cfg.UseRTSCTS {
		m.sendRTS()
		return
	}
	m.sendData()
}

func (m *MAC) sendData() {
	f := m.pool.Frame()
	f.Type = pkt.FrameData
	f.TxSrc = m.id
	f.TxDst = m.cur.next
	f.Payload = m.cur.head()
	f.Retry = m.attempts > 0
	m.attempts++
	m.TxData++
	for _, s := range m.stamps {
		s(f)
	}
	if m.attempts > 1 {
		m.TxRetries++
		m.cur.Retries++
		m.record(obs.KindRetry, obs.CauseNone, m.cur.next, f.Payload)
	} else {
		m.record(obs.KindTxAttempt, obs.CauseNone, m.cur.next, f.Payload)
	}
	m.state = stTxData
	end := m.ch.TransmitFrom(m.st, f)
	m.txEnd = end
	air := end - m.eng.Now()
	timeout := air + SIFS + m.ch.AirTime(pkt.AckBytes) + SlotTime
	m.eng.ScheduleFuncFixed(air, m.dataEndFn)
	m.timer = m.eng.ScheduleFixed(timeout, m.ackTimeoutFn)
}

func (m *MAC) sendRTS() {
	// Stamps may grow the coming data frame by header bytes that do not
	// exist yet when the NAV is computed, so reserve the most any
	// registered stamp declared. Over-reservation is benign;
	// under-reservation would let neighbours contend into the data frame.
	dataAir := m.ch.AirTime(m.cur.head().Bytes + pkt.MACHeaderBytes + m.stampBytes)
	nav := 3*SIFS + m.ch.AirTime(pkt.CTSBytes) + dataAir + m.ch.AirTime(pkt.AckBytes)
	f := m.pool.Frame()
	f.Type, f.TxSrc, f.TxDst, f.NAV = pkt.FrameRTS, m.id, m.cur.next, nav
	m.attempts++
	m.state = stTxData
	end := m.ch.TransmitFrom(m.st, f)
	m.txEnd = end
	air := end - m.eng.Now()
	timeout := air + SIFS + m.ch.AirTime(pkt.CTSBytes) + SlotTime
	m.eng.ScheduleFuncFixed(air, m.rtsEndFn)
	m.timer = m.eng.ScheduleFixed(timeout, m.ackTimeoutFn)
}

// ackTimeout handles a missing ACK (or CTS): exponential backoff and retry,
// dropping the frame once the retry limit is reached.
func (m *MAC) ackTimeout() {
	if m.state != stWaitAck && m.state != stWaitCTS && m.state != stTxData {
		return
	}
	if m.attempts >= m.cfg.RetryLimit {
		m.TxFailed++
		m.cur.DroppedRetry++
		p := m.cur.pop()
		m.record(obs.KindDrop, obs.CauseRetryExceeded, m.cur.next, p)
		m.notifyDrop(p, DropRetryExceeded)
		p.Release()
		m.cur = nil
		m.attempts = 0
		m.state = stIdle
		m.kick()
		return
	}
	m.retryCW *= 2
	if m.retryCW > RetryCWmax {
		m.retryCW = RetryCWmax
	}
	if base := m.cur.cwMin; m.retryCW < base {
		m.retryCW = base
	}
	m.beginContention()
}

// String summarises the MAC's id, transmitter state and backlog.
func (m *MAC) String() string {
	return fmt.Sprintf("mac(%v state=%d queued=%d)", m.id, m.state, m.TotalQueued())
}
