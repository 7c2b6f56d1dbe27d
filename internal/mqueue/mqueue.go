// Package mqueue implements the paper's central abstraction: message queues
// (mqueues) for passing messages between the SmartNIC and accelerators
// (§4.2).
//
// An mqueue is a pair of producer-consumer ring buffers — receive (RX) and
// transmit (TX) — living in *accelerator-local* memory, with per-slot
// notification (doorbell) registers and a small queue header of
// producer/consumer counters. The accelerator touches the rings with plain
// local memory accesses (the entire accelerator-side I/O library is a thin
// wrapper, ~20 LoC in the paper's SGX port); the SmartNIC accesses them
// remotely with one-sided RDMA through the Remote Message Queue Manager.
//
// Following §5.1 ("One RC QP per accelerator"), all mqueues of one
// accelerator share one RDMA queue pair and one memory region, with the
// per-queue headers packed contiguously so the SNIC refreshes the state of
// every queue in a single RDMA READ per polling sweep (Group.RefreshT). This
// batching is what lets a small SNIC drive hundreds of mqueues.
//
// Two further properties of the paper's design are modelled explicitly:
//
//   - Metadata/data coalescing (§5.1): the per-message control metadata
//     (size, error status, notification register) is carried in the same
//     RDMA WRITE as the payload, so delivering a message costs one
//     transaction. Valid only when the write-barrier workaround is off.
//   - The RDMA-read write barrier (§5.1): when the accelerator's memory has
//     relaxed DMA ordering, each message instead costs three transactions
//     (payload write, barrier read, doorbell write), adding ~5 µs/message.
package mqueue

import (
	"errors"
	"fmt"
	"time"

	"lynx/internal/check"
	"lynx/internal/fault"
	"lynx/internal/memdev"
	"lynx/internal/rdma"
	"lynx/internal/sim"
	"lynx/internal/trace"
)

// Kind distinguishes the two mqueue flavours of §4.3.
type Kind int

const (
	// ServerQueue is bound to a listening port; responses return to the
	// client a request arrived from (connection-less, UDP-socket-like).
	ServerQueue Kind = iota
	// ClientQueue sends to one statically configured destination and
	// receives its responses (for back-end services like memcached, §6.4).
	ClientQueue
)

// String names the kind.
func (k Kind) String() string {
	if k == ClientQueue {
		return "client"
	}
	return "server"
}

// Slot layout. The paper's metadata is 4 bytes (size, error, doorbell); we
// carry 2 further bytes of correlation index so that server-queue responses
// can name the request slot they answer — the paper folds this into its slot
// addressing, we keep it explicit.
const (
	offDoorbell = 0 // 1 byte: 0 free, 1 full
	offError    = 1 // 1 byte: connection error status from the SNIC (§5.1)
	offSize     = 2 // 2 bytes little-endian payload size
	offCorr     = 4 // 2 bytes little-endian correlation (request slot index)
	HeaderBytes = 6
)

// Per-queue header: three 8-byte little-endian counters.
const (
	hdrRxConsumed = 0  // written by the accelerator: RX messages consumed
	hdrTxSent     = 8  // written by the accelerator: TX messages produced
	hdrTxConsumed = 16 // written by the SNIC (RDMA): TX messages drained
	// QueueHeaderBytes is the header footprint (padded to 32).
	QueueHeaderBytes = 32
)

// Config shapes one mqueue.
type Config struct {
	Kind     Kind
	Slots    int // ring entries per direction
	SlotSize int // bytes per entry including HeaderBytes
	// Barrier enables the §5.1 RDMA-read write barrier before each
	// doorbell (required for correctness on relaxed-ordering memory,
	// disabled in the paper's evaluation and by default here).
	Barrier bool
	// NoCoalesce disables metadata/data coalescing (ablation): payload and
	// doorbell go in separate RDMA writes.
	NoCoalesce bool
	// Check, when enabled, receives ring-bound and counter-monotonicity
	// violations observed on the SNIC side of the queue. Nil costs one
	// pointer test per operation.
	Check *check.Checker
	// Spans, when non-nil, receives SNIC-side queue-wait attribution:
	// PopTxManyT books the TX-ring residency (drain start minus
	// StageAccelSent) against the span's queueing phase. Nil costs one
	// pointer test per drain.
	Spans *trace.SpanTable
	// ReplSpans, when non-nil, marks the queue as a replication ingest ring:
	// each record-bearing write stamps StageReplPushed for the record's span
	// into this table (the *origin's* span table — replica deliveries link
	// back to the origin span through the shared 8-byte wire-seq id) at its
	// delivery instant. First write wins, so the stamp is the earliest peer
	// delivery.
	ReplSpans *trace.SpanTable
}

func (c *Config) validate() error {
	if c.Slots <= 0 || c.SlotSize <= HeaderBytes {
		return fmt.Errorf("mqueue: invalid geometry slots=%d slotSize=%d", c.Slots, c.SlotSize)
	}
	return nil
}

// RingBytes is the rings-only footprint of one queue (without its header).
func (c Config) RingBytes() int { return 2 * c.Slots * c.SlotSize }

// Footprint returns the bytes of accelerator memory one standalone mqueue
// occupies (header + rings).
func (c Config) Footprint() int { return QueueHeaderBytes + c.RingBytes() }

// MaxPayload returns the largest payload one slot carries.
func (c Config) MaxPayload() int { return c.SlotSize - HeaderBytes }

// GroupFootprint returns the region bytes n grouped queues occupy: a packed
// header block followed by the rings.
func GroupFootprint(c Config, n int) int {
	return n*QueueHeaderBytes + n*c.RingBytes()
}

// ErrQueueFull reports RX ring exhaustion (accelerator not keeping up).
var ErrQueueFull = errors.New("mqueue: RX ring full")

// layout pins one queue's pieces within the shared region.
type layout struct {
	hdr  int // queue header offset
	ring int // rings offset (RX then TX)
}

func (l layout) rxSlot(c Config, slot int) int { return l.ring + slot*c.SlotSize }
func (l layout) txSlot(c Config, slot int) int { return l.ring + (c.Slots+slot)*c.SlotSize }

// ---------------------------------------------------------------------------
// SNIC side

// Queue is the SmartNIC-side handle of one mqueue, operated through a QP by
// the Remote Message Queue Manager. All methods must be called from SNIC
// processes.
type Queue struct {
	cfg    Config
	region *memdev.Region
	lay    layout
	qp     *rdma.QP

	rxHead     uint64   // next RX sequence to fill
	rxConsumed uint64   // accelerator's consumed-RX counter (cached)
	txSeen     uint64   // accelerator's sent-TX counter (cached)
	txTail     uint64   // TX messages we have drained
	txDirty    bool     // txConsumed needs publishing to the accelerator
	hdrAt      sim.Time // wire instant of the freshest absorbed header snapshot

	pushed, polled, full uint64
}

// New creates the SNIC-side view of a standalone mqueue at base within
// region, reached through qp.
func New(region *memdev.Region, base int, cfg Config, qp *rdma.QP) (*Queue, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if base+cfg.Footprint() > region.Size() {
		return nil, fmt.Errorf("mqueue: footprint %d at base %d exceeds region %d",
			cfg.Footprint(), base, region.Size())
	}
	return &Queue{cfg: cfg, region: region, qp: qp,
		lay: layout{hdr: base, ring: base + QueueHeaderBytes}}, nil
}

// Config returns the queue geometry.
func (q *Queue) Config() Config { return q.cfg }

// buildSlot assembles header+payload for one slot write.
func buildSlot(payload []byte, errStatus byte, corr uint16, doorbell byte) []byte {
	buf := make([]byte, HeaderBytes+len(payload))
	buf[offDoorbell] = doorbell
	buf[offError] = errStatus
	buf[offSize] = byte(len(payload))
	buf[offSize+1] = byte(len(payload) >> 8)
	buf[offCorr] = byte(corr)
	buf[offCorr+1] = byte(corr >> 8)
	copy(buf[HeaderBytes:], payload)
	return buf
}

// QP returns the queue pair this queue's transfers ride on. Queues of one
// group share a QP, which is what lets a dispatcher quantum post writes for
// several queues under one doorbell.
func (q *Queue) QP() *rdma.QP { return q.qp }

// PushT delivers one message into the accelerator's RX ring; k runs with the
// slot used once the message-bearing writes complete. When the cached
// counters show the ring full it re-reads the header once and fails with
// ErrQueueFull if the accelerator still has not freed a slot. k runs inline
// only on immediate validation failure.
func (q *Queue) PushT(t *sim.Task, payload []byte, errStatus byte, k func(slot int, err error)) {
	if len(payload) > q.cfg.MaxPayload() {
		k(0, fmt.Errorf("mqueue: payload %d exceeds slot capacity %d", len(payload), q.cfg.MaxPayload()))
		return
	}
	if q.ringFull() {
		q.RefreshT(t, func() {
			if q.ringFull() {
				q.full++
				k(0, ErrQueueFull)
				return
			}
			q.pushSlotT(t, payload, errStatus, k)
		})
		return
	}
	q.pushSlotT(t, payload, errStatus, k)
}

// ringFull reports whether, per the cached counters, the RX ring has no free
// slot.
func (q *Queue) ringFull() bool { return q.rxHead-q.rxConsumed >= uint64(q.cfg.Slots) }

// reserve claims the next RX slot and returns it with its ring offset. The
// slot is reserved before any yield: several dispatcher contexts may push
// into the same queue concurrently, and the slot assignment must not be
// computed from a stale head after a wait.
func (q *Queue) reserve() (slot, off int) {
	slot = int(q.rxHead % uint64(q.cfg.Slots))
	q.rxHead++
	if ck := q.cfg.Check; ck.Enabled() && q.rxHead-q.rxConsumed > uint64(q.cfg.Slots) {
		ck.Failf("mqueue.ring-bound", "RX overcommit: head %d consumed %d slots %d",
			q.rxHead, q.rxConsumed, q.cfg.Slots)
	}
	return slot, q.lay.rxSlot(q.cfg, slot)
}

// pushSlotT reserves the next RX slot and issues the mode-dependent write
// chain: one coalesced write, two writes without coalescing, or three with
// the barrier.
func (q *Queue) pushSlotT(t *sim.Task, payload []byte, errStatus byte, k func(slot int, err error)) {
	slot, off := q.reserve()
	stamp := q.stampPushed(payload)
	done := func(rdma.CQE) {
		q.pushed++
		k(slot, nil)
	}
	switch {
	case q.cfg.Barrier:
		// Three transactions: payload+metadata (excluding the doorbell
		// byte, which only the doorbell write may touch), barrier,
		// doorbell.
		buf := buildSlot(payload, errStatus, 0, 0)
		q.qp.WriteT(t, q.region, off+offError, buf[offError:], func(rdma.CQE) {
			q.qp.BarrierT(t, q.region, func() {
				q.qp.WriteNotifyT(t, q.region, off+offDoorbell, []byte{1}, stamp, done)
			})
		})
	case q.cfg.NoCoalesce:
		// Two transactions: payload+metadata, then doorbell. Without a
		// barrier these may become visible out of order on relaxed
		// memory — the §5.1 hazard.
		buf := buildSlot(payload, errStatus, 0, 0)
		q.qp.WriteT(t, q.region, off+offError, buf[offError:], func(rdma.CQE) {
			q.qp.WriteNotifyT(t, q.region, off+offDoorbell, []byte{1}, stamp, done)
		})
	default:
		// One coalesced transaction; NIC DMA commits lower addresses
		// first, so a single write carrying data and notification is
		// safe on strongly ordered regions (§5.1).
		buf := buildSlot(payload, errStatus, 0, 1)
		q.qp.WriteNotifyT(t, q.region, off, buf, stamp, done)
	}
}

// PrepareWriteT reserves the next RX slot and returns the coalesced work
// request that delivers payload into it, without posting. Callers collect
// WRs from several PrepareWriteT calls — across all queues of a group, which
// share a QP — and post them together (rdma.PostAndWaitT) so a k-message
// quantum costs ceil(k/doorbell) issue charges and ceil(k/cqDrain) wakeups
// instead of k of each. Flow control (one header refresh retry, then
// ErrQueueFull), slot reservation and delivery-time StagePushed stamping are
// identical to PushT. When no header refresh is needed (the common case — the
// ring has known free slots) the WR returns inline with ok=true and k never
// runs; otherwise the task parks in the refresh and k runs with the result.
// Coalesced mode only: the barrier and no-coalesce ablations model
// per-message transaction splits that multi-WQE posting cannot honestly
// amortize.
func (q *Queue) PrepareWriteT(t *sim.Task, payload []byte, errStatus byte, k func(rdma.WR, int, error)) (rdma.WR, int, error, bool) {
	if err := q.coalescedOnly("PrepareWriteT", payload); err != nil {
		return rdma.WR{}, 0, err, true
	}
	if q.ringFull() {
		q.RefreshT(t, func() {
			if q.ringFull() {
				q.full++
				k(rdma.WR{}, 0, ErrQueueFull)
				return
			}
			wr, slot := q.reserveWrite(payload, errStatus)
			k(wr, slot, nil)
		})
		return rdma.WR{}, 0, nil, false
	}
	wr, slot := q.reserveWrite(payload, errStatus)
	return wr, slot, nil, true
}

// coalescedOnly validates a call of the WR-building forms (PrepareWriteT,
// PushAsyncT): coalesced mode, and a payload that fits one slot.
func (q *Queue) coalescedOnly(op string, payload []byte) error {
	if q.cfg.Barrier || q.cfg.NoCoalesce {
		return fmt.Errorf("mqueue: %s requires coalesced mode", op)
	}
	if len(payload) > q.cfg.MaxPayload() {
		return fmt.Errorf("mqueue: payload %d exceeds slot capacity %d", len(payload), q.cfg.MaxPayload())
	}
	return nil
}

// reserveWrite reserves the next RX slot and builds its coalesced WR (the
// non-blocking tail of PrepareWriteT and PushAsyncT).
func (q *Queue) reserveWrite(payload []byte, errStatus byte) (rdma.WR, int) {
	slot, off := q.reserve()
	q.pushed++
	return rdma.WR{
		Op:        rdma.OpWrite,
		Region:    q.region,
		Offset:    off,
		Data:      buildSlot(payload, errStatus, 0, 1),
		OnDeliver: q.stampPushed(payload),
	}, slot
}

// stampPushed returns the OnDeliver hook stamping StagePushed (or, for
// replication ingest rings, StageReplPushed) for payload's span at the
// write's delivery instant; nil when the queue has no span table (keeps the
// uninstrumented push path allocation-free). The stamp lands when the
// message-bearing write is DELIVERED into the RX ring, not when its
// completion returns to the pushing context: the accelerator can consume the
// message as soon as the doorbell lands, which under load beats the
// completion's way back — stamping on return would let AccelRecv precede
// Pushed and break stage monotonicity.
func (q *Queue) stampPushed(payload []byte) func(at sim.Time) {
	sp := q.cfg.Spans
	if rp := q.cfg.ReplSpans; rp != nil {
		id := trace.SpanID(payload)
		if id == 0 {
			return nil
		}
		return func(at sim.Time) { rp.Stamp(id, trace.StageReplPushed, at) }
	}
	if sp == nil {
		return nil
	}
	id := trace.SpanID(payload)
	if id == 0 {
		return nil
	}
	return func(at sim.Time) { sp.Stamp(id, trace.StagePushed, at) }
}

// PushAsyncT delivers one message like PushT but does not wait for the RDMA
// write to complete: k runs with the slot as soon as the write is posted
// (hardware pipelines like the Innova AFU, §5.2, move on immediately). Only
// valid in the default coalesced mode. Flow control uses the cached counters
// without a header refresh; callers refresh periodically. k runs inline on
// every error.
func (q *Queue) PushAsyncT(t *sim.Task, payload []byte, errStatus byte, k func(slot int, err error)) {
	if err := q.coalescedOnly("PushAsyncT", payload); err != nil {
		k(0, err)
		return
	}
	if q.ringFull() {
		q.full++
		k(0, ErrQueueFull)
		return
	}
	wr, slot := q.reserveWrite(payload, errStatus)
	q.qp.PostT(t, wr, func() { k(slot, nil) })
}

// RefreshT re-reads this queue's header counters with one RDMA READ; k runs
// once the cached counters are updated.
func (q *Queue) RefreshT(t *sim.Task, k func()) {
	q.qp.ReadCQET(t, q.region, q.lay.hdr, 16, func(cqe rdma.CQE) {
		q.absorbHeader(cqe.Data, cqe.At)
		k()
	})
}

// absorbHeader ingests the accelerator-written half of a header block. at is
// the wire instant the READ snapshotted memory (CQE.At), not its delivery
// time: RC completions are delivered in posting order, but a transport-level
// retry (fault plan RDMAErrRate) can delay an earlier READ's wire trip past a
// later one's, so a newer snapshot may be absorbed first. A stale snapshot is
// simply dropped — absorbing it would make the monotonic counters appear to
// run backwards (the false positive PR 7 documented).
func (q *Queue) absorbHeader(raw []byte, at sim.Time) {
	if at < q.hdrAt {
		return
	}
	q.hdrAt = at
	rxConsumed := leUint64(raw[hdrRxConsumed:])
	txSeen := leUint64(raw[hdrTxSent:])
	if ck := q.cfg.Check; ck.Enabled() {
		// The accelerator's counters only ever advance, never past what the
		// SNIC produced (RX) or more than a ring beyond what it drained (TX).
		if rxConsumed < q.rxConsumed || txSeen < q.txSeen {
			ck.Failf("mqueue.counter-monotonic", "header went backwards: rxConsumed %d->%d txSeen %d->%d",
				q.rxConsumed, rxConsumed, q.txSeen, txSeen)
		}
		if rxConsumed > q.rxHead {
			ck.Failf("mqueue.counter-bound", "rxConsumed %d beyond pushed head %d", rxConsumed, q.rxHead)
		}
		if txSeen > q.txTail+uint64(q.cfg.Slots) {
			ck.Failf("mqueue.ring-bound", "TX overcommit: seen %d drained %d slots %d",
				txSeen, q.txTail, q.cfg.Slots)
		}
	}
	q.rxConsumed = rxConsumed
	q.txSeen = txSeen
}

// Ready reports whether, per the cached counters, the TX ring has messages.
func (q *Queue) Ready() bool { return q.txSeen > q.txTail }

// TxMsg is one message drained from the accelerator's TX ring.
type TxMsg struct {
	Payload []byte
	Err     byte
	Corr    uint16 // RX slot index this responds to (server queues)
	Slot    int
}

// PopTxManyT drains up to budget TX messages with a single RDMA READ
// spanning the contiguous run of ready slots, storing them into out; k runs
// with the count. The run stops at the ring wrap (the next call picks up the
// remainder), so one sweep visit costs at most two read round trips instead
// of one per message; a budget of 1 reads exactly one slot. k runs inline
// (with 0) only when nothing is ready. The caller must eventually CommitTxT
// so the accelerator sees the slots freed.
func (q *Queue) PopTxManyT(t *sim.Task, budget int, out []TxMsg, k func(n int)) {
	first, n := q.txRun(budget, out)
	if n == 0 {
		k(0)
		return
	}
	drainStart := t.Now()
	q.qp.ReadT(t, q.region, q.lay.txSlot(q.cfg, first), n*q.cfg.SlotSize, func(raw []byte) {
		k(q.absorbTx(raw, first, n, drainStart, out))
	})
}

// txRun clamps a drain budget to out, to the TX backlog and to the ring
// wrap, returning the first ring slot of the run and its length.
func (q *Queue) txRun(budget int, out []TxMsg) (first, n int) {
	if budget > len(out) {
		budget = len(out)
	}
	if backlog := q.TxBacklog(); budget > backlog {
		budget = backlog
	}
	first = int(q.txTail % uint64(q.cfg.Slots))
	if run := q.cfg.Slots - first; budget > run {
		budget = run
	}
	return first, budget
}

// absorbTx parses the n slots of a spanning TX read that starts at ring slot
// first into out, advancing the drained counter and booking each span's
// TX-drain wait. It returns how many slots it parsed, stopping early at a
// slot whose doorbell is clear.
func (q *Queue) absorbTx(raw []byte, first, n int, drainStart sim.Time, out []TxMsg) int {
	for i := 0; i < n; i++ {
		sraw := raw[i*q.cfg.SlotSize:]
		if sraw[offDoorbell] == 0 {
			// Counter said ready but the slot write is not visible —
			// cannot happen with local accelerator stores (strong
			// ordering), kept as a guard.
			q.cfg.Check.Failf("mqueue.doorbell-miss",
				"TX slot %d counted ready (seen %d, drained %d) but doorbell clear",
				first+i, q.txSeen, q.txTail)
			return i
		}
		size := int(sraw[offSize]) | int(sraw[offSize+1])<<8
		corr := uint16(sraw[offCorr]) | uint16(sraw[offCorr+1])<<8
		if size > q.cfg.MaxPayload() {
			size = q.cfg.MaxPayload()
		}
		payload := make([]byte, size)
		copy(payload, sraw[HeaderBytes:HeaderBytes+size])
		q.txTail++
		q.txDirty = true
		q.polled++
		if sp := q.cfg.Spans; sp != nil {
			// TX-drain wait: the response sat in the ring from its
			// publication (StageAccelSent) until this sweep reached it.
			id := trace.SpanID(payload)
			if sentAt, ok := sp.StampAt(id, trace.StageAccelSent); ok {
				sp.AddWait(id, trace.PhaseQueueing, drainStart.Sub(sentAt))
			}
		}
		out[i] = TxMsg{Payload: payload, Err: sraw[offError], Corr: corr, Slot: first + i}
	}
	return n
}

// CommitTxT publishes the drained-TX counter to the accelerator (one RDMA
// WRITE), releasing the slots for reuse; k runs once the write completes. k
// runs inline when nothing was drained since the last commit.
func (q *Queue) CommitTxT(t *sim.Task, k func()) {
	if !q.txDirty {
		k()
		return
	}
	var buf [8]byte
	putLeUint64(buf[:], q.txTail)
	q.qp.WriteT(t, q.region, q.lay.hdr+hdrTxConsumed, buf[:], func(rdma.CQE) {
		q.txDirty = false
		k()
	})
}

// InFlight reports RX messages pushed but not yet known consumed.
func (q *Queue) InFlight() int { return int(q.rxHead - q.rxConsumed) }

// Slots reports the ring capacity per direction.
func (q *Queue) Slots() int { return q.cfg.Slots }

// TxBacklog reports TX messages the accelerator has published (per the
// cached counters) that the MQ manager has not yet drained.
func (q *Queue) TxBacklog() int { return int(q.txSeen - q.txTail) }

// Counters returns the accelerator progress counters as last refreshed: RX
// messages consumed and TX messages produced. The MQ-manager watchdog uses
// them to detect a stalled accelerator context (in-flight messages with
// neither counter advancing).
func (q *Queue) Counters() (rxConsumed, txSeen uint64) { return q.rxConsumed, q.txSeen }

// Stats reports pushes, TX messages drained, and RX-full events.
func (q *Queue) Stats() (pushed, polled, full uint64) { return q.pushed, q.polled, q.full }

func leUint64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func putLeUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// ---------------------------------------------------------------------------
// Groups (one RC QP / one region per accelerator, §5.1)

// Group is the SNIC-side view of all mqueues of one accelerator: a packed
// header block plus per-queue rings, all reached through one shared QP.
type Group struct {
	cfg    Config
	region *memdev.Region
	base   int
	qp     *rdma.QP
	queues []*Queue

	refreshes uint64
	activity  *sim.Gate
}

// NewGroup lays out n queues at base within region.
func NewGroup(region *memdev.Region, base int, cfg Config, n int, qp *rdma.QP) (*Group, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("mqueue: group needs at least one queue")
	}
	if base+GroupFootprint(cfg, n) > region.Size() {
		return nil, fmt.Errorf("mqueue: group footprint %d at base %d exceeds region %d",
			GroupFootprint(cfg, n), base, region.Size())
	}
	g := &Group{cfg: cfg, region: region, base: base, qp: qp}
	ringBase := base + n*QueueHeaderBytes
	for i := 0; i < n; i++ {
		g.queues = append(g.queues, &Queue{
			cfg: cfg, region: region, qp: qp,
			lay: layout{hdr: base + i*QueueHeaderBytes, ring: ringBase + i*cfg.RingBytes()},
		})
	}
	return g, nil
}

// Len reports the number of queues.
func (g *Group) Len() int { return len(g.queues) }

// Queue returns queue i.
func (g *Group) Queue(i int) *Queue { return g.queues[i] }

// RefreshT reads the whole header block in one RDMA READ and updates every
// queue's cached counters — the batching that makes polling hundreds of
// mqueues affordable; k runs once all are updated.
func (g *Group) RefreshT(t *sim.Task, k func()) {
	g.qp.ReadCQET(t, g.region, g.base, len(g.queues)*QueueHeaderBytes, func(cqe rdma.CQE) {
		for i, q := range g.queues {
			q.absorbHeader(cqe.Data[i*QueueHeaderBytes:], cqe.At)
		}
		g.refreshes++
		k()
	})
}

// Refreshes reports header-block reads performed.
func (g *Group) Refreshes() uint64 { return g.refreshes }

// ActivityGate returns a gate fired whenever the accelerator writes any
// queue header of the group (publishing new TX messages or RX consumption).
// The Remote MQ Manager blocks on it between polling sweeps instead of
// spinning, then charges its polling interval on wake-up.
func (g *Group) ActivityGate() *sim.Gate {
	if g.activity == nil {
		g.activity = g.region.Watch(g.base, len(g.queues)*QueueHeaderBytes)
	}
	return g.activity
}

// ---------------------------------------------------------------------------
// Accelerator side

// AccessProfile captures how expensive the accelerator's own accesses to
// mqueue memory are: device-local for GPUs (§4.2: "the latency of enqueuing
// ... is exactly the latency of accelerator local memory access"), mapped
// host memory for the VCA workaround (§5.4).
type AccessProfile struct {
	// LocalAccess is the cost of one ring access (header or payload).
	LocalAccess time.Duration
	// PollInterval is the doorbell polling period while idle.
	PollInterval time.Duration
	// Accel names the accelerator owning the queues, for fault targeting.
	Accel string
	// Faults is the fault plan consulted on every ring access; inside a
	// stall window the accessing context freezes until the window closes.
	// Nil injects nothing.
	Faults *fault.Plan
	// Spans, when non-nil, receives accelerator-side stage timestamps
	// (RX consume, TX publish) for request-scoped tracing.
	Spans *trace.SpanTable
	// Check, when enabled, receives slot-corruption and correlation-range
	// violations observed on the accelerator side.
	Check *check.Checker
}

// AccelQueue is the accelerator-side handle: the lightweight I/O layer that
// replaces a full network stack on the accelerator (§4.3).
type AccelQueue struct {
	cfg    Config
	region *memdev.Region
	lay    layout
	prof   AccessProfile
	index  int // position within the accelerator's queue group

	rxTail uint64
	txHead uint64

	// rxGate fires when anything lands in the RX ring; txFreeGate fires
	// when the SNIC publishes TX consumption. They let the simulator block
	// the polling loops instead of executing every poll iteration; the
	// modelled polling latency is re-added on wake-up.
	rxGate     *sim.Gate
	txFreeGate *sim.Gate

	received, sent, errs uint64
}

func (aq *AccelQueue) initGates() {
	aq.rxGate = aq.region.Watch(aq.lay.rxSlot(aq.cfg, 0), aq.cfg.Slots*aq.cfg.SlotSize)
	aq.txFreeGate = aq.region.Watch(aq.lay.hdr+hdrTxConsumed, 8)
}

// Attach creates the accelerator-side view of a standalone mqueue at base.
func Attach(region *memdev.Region, base int, cfg Config, prof AccessProfile) (*AccelQueue, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if base+cfg.Footprint() > region.Size() {
		return nil, fmt.Errorf("mqueue: footprint exceeds region")
	}
	aq := &AccelQueue{cfg: cfg, region: region, prof: prof,
		lay: layout{hdr: base, ring: base + QueueHeaderBytes}}
	aq.initGates()
	return aq, nil
}

// AttachGroup creates the accelerator-side views of a queue group laid out
// by NewGroup.
func AttachGroup(region *memdev.Region, base int, cfg Config, n int, prof AccessProfile) ([]*AccelQueue, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if base+GroupFootprint(cfg, n) > region.Size() {
		return nil, fmt.Errorf("mqueue: group footprint exceeds region")
	}
	ringBase := base + n*QueueHeaderBytes
	out := make([]*AccelQueue, n)
	for i := range out {
		out[i] = &AccelQueue{cfg: cfg, region: region, prof: prof, index: i,
			lay: layout{hdr: base + i*QueueHeaderBytes, ring: ringBase + i*cfg.RingBytes()}}
		out[i].initGates()
	}
	return out, nil
}

// Msg is one received message.
type Msg struct {
	Payload []byte
	Err     byte // non-zero: SNIC-reported connection error (§5.1 metadata)
	Slot    int  // RX slot index, echoed as Corr when responding
}

// maybeStall freezes the accessing accelerator context for the remainder of
// any fault-plan stall window covering the current time — the simulated
// equivalent of a hung threadblock or VCA node. No-op without a plan.
func (aq *AccelQueue) maybeStall(p *sim.Proc) {
	for {
		d := aq.prof.Faults.StallRemaining(aq.prof.Accel, aq.index, p.Now())
		if d <= 0 {
			return
		}
		p.Sleep(d)
	}
}

// TryRecv performs one poll of the next RX slot. It charges one local
// access; if a message is present it consumes it (two further accesses:
// payload read and doorbell clear + consumed-counter update).
func (aq *AccelQueue) TryRecv(p *sim.Proc) (Msg, bool) {
	aq.maybeStall(p)
	slot := int(aq.rxTail % uint64(aq.cfg.Slots))
	off := aq.lay.rxSlot(aq.cfg, slot)
	p.Sleep(aq.prof.LocalAccess)
	if aq.region.Byte(off+offDoorbell) == 0 {
		return Msg{}, false
	}
	seen := p.Now() // doorbell observed set: RX-ring residency ends here
	p.Sleep(aq.prof.LocalAccess)
	hdr := aq.region.ReadLocal(off, HeaderBytes)
	size := int(hdr[offSize]) | int(hdr[offSize+1])<<8
	if ck := aq.prof.Check; ck.Enabled() && size > aq.cfg.MaxPayload() {
		ck.Failf("mqueue.slot-corrupt", "RX slot %d size %d exceeds capacity %d",
			slot, size, aq.cfg.MaxPayload())
	}
	payload := aq.region.ReadLocal(off+HeaderBytes, size)
	// Clear doorbell and publish consumption.
	p.Sleep(aq.prof.LocalAccess)
	aq.region.WriteLocal(off+offDoorbell, []byte{0})
	aq.rxTail++
	var cnt [8]byte
	putLeUint64(cnt[:], aq.rxTail)
	aq.region.WriteLocal(aq.lay.hdr+hdrRxConsumed, cnt[:])
	aq.received++
	if hdr[offError] != 0 {
		aq.errs++
	}
	if sp := aq.prof.Spans; sp != nil {
		id := trace.SpanID(payload)
		// RX-ring wait: from the SNIC's push (StagePushed) until this
		// context observed the doorbell; the remaining accesses are service.
		if pushedAt, ok := sp.StampAt(id, trace.StagePushed); ok {
			sp.AddWait(id, trace.PhaseQueueing, seen.Sub(pushedAt))
		}
		sp.Stamp(id, trace.StageAccelRecv, p.Now())
	}
	return Msg{Payload: payload, Err: hdr[offError], Slot: slot}, true
}

// Recv blocks until a message arrives. Semantically the accelerator polls
// its doorbell at PollInterval; the simulation blocks on the ring's write
// gate and re-adds half a polling interval of detection latency.
func (aq *AccelQueue) Recv(p *sim.Proc) Msg {
	for {
		v := aq.rxGate.Version()
		if m, ok := aq.TryRecv(p); ok {
			return m
		}
		aq.rxGate.Wait(p, v)
		p.Sleep(aq.prof.PollInterval / 2)
	}
}

// ErrRemote is the error RecvTimeout returns alongside a message whose
// metadata carries a non-zero SNIC-reported connection error status (§5.1).
var ErrRemote = errors.New("mqueue: SNIC-reported connection error")

// RecvTimeout polls until a message arrives or the deadline passes,
// following the (value, ok, err) timeout-receive idiom: ok is false on
// timeout; err is ErrRemote when the received message's metadata flags a
// SNIC-reported connection error (the message itself is still returned, with
// Msg.Err holding the raw status byte).
func (aq *AccelQueue) RecvTimeout(p *sim.Proc, d time.Duration) (Msg, bool, error) {
	deadline := p.Now().Add(d)
	for {
		v := aq.rxGate.Version()
		if m, ok := aq.TryRecv(p); ok {
			if m.Err != 0 {
				return m, true, ErrRemote
			}
			return m, true, nil
		}
		if p.Now() >= deadline {
			return Msg{}, false, nil
		}
		if !aq.rxGate.WaitTimeout(p, v, deadline.Sub(p.Now())) {
			return Msg{}, false, nil
		}
		p.Sleep(aq.prof.PollInterval / 2)
	}
}

// Send writes one message into the TX ring, blocking (by polling the
// SNIC-written consumed counter) while the ring is full. corr names the RX
// slot being answered on server queues; pass 0 on client queues.
func (aq *AccelQueue) Send(p *sim.Proc, corr uint16, payload []byte) error {
	return aq.SendErr(p, corr, payload, 0)
}

// SendErr is Send with an explicit error-status byte.
func (aq *AccelQueue) SendErr(p *sim.Proc, corr uint16, payload []byte, errStatus byte) error {
	if len(payload) > aq.cfg.MaxPayload() {
		return fmt.Errorf("mqueue: payload %d exceeds slot capacity %d", len(payload), aq.cfg.MaxPayload())
	}
	aq.maybeStall(p)
	if ck := aq.prof.Check; ck.Enabled() && aq.cfg.Kind == ServerQueue && int(corr) >= aq.cfg.Slots {
		ck.Failf("mqueue.corr-range", "response correlates to slot %d of %d", corr, aq.cfg.Slots)
	}
	// Wait for the SNIC to have freed this slot (polling the SNIC-written
	// consumed counter; blocked on its write gate in the simulator).
	var consumed uint64
	freeWaitStart := p.Now()
	for {
		v := aq.txFreeGate.Version()
		p.Sleep(aq.prof.LocalAccess)
		consumed = leUint64(aq.region.ReadLocal(aq.lay.hdr+hdrTxConsumed, 8))
		if aq.txHead-consumed < uint64(aq.cfg.Slots) {
			break
		}
		aq.txFreeGate.Wait(p, v)
		p.Sleep(aq.prof.PollInterval / 2)
	}
	if sp := aq.prof.Spans; sp != nil {
		// TX-ring backpressure: time blocked for a free slot beyond the one
		// mandatory counter read is queue wait within the execution phase.
		if blocked := p.Now().Sub(freeWaitStart) - aq.prof.LocalAccess; blocked > 0 {
			sp.AddWait(trace.SpanID(payload), trace.PhaseExec, blocked)
		}
	}
	slot := int(aq.txHead % uint64(aq.cfg.Slots))
	if ck := aq.prof.Check; ck.Enabled() && aq.txHead+1-consumed > uint64(aq.cfg.Slots) {
		ck.Failf("mqueue.ring-bound", "TX overcommit: head %d consumed %d slots %d",
			aq.txHead+1, consumed, aq.cfg.Slots)
	}
	off := aq.lay.txSlot(aq.cfg, slot)
	buf := buildSlot(payload, errStatus, corr, 1)
	p.Sleep(aq.prof.LocalAccess)
	aq.region.WriteLocal(off, buf)
	aq.txHead++
	var cnt [8]byte
	putLeUint64(cnt[:], aq.txHead)
	aq.region.WriteLocal(aq.lay.hdr+hdrTxSent, cnt[:])
	aq.sent++
	aq.prof.Spans.Stamp(trace.SpanID(payload), trace.StageAccelSent, p.Now())
	return nil
}

// Stats reports received/sent message counts and error-flagged receives.
func (aq *AccelQueue) Stats() (received, sent, errs uint64) {
	return aq.received, aq.sent, aq.errs
}
