// Package rdma models the one-sided RDMA machinery Lynx relies on: an RDMA
// engine embedded in a NIC, queue pairs (reliable RC and unreliable UC),
// work requests, and their completions.
//
// Lynx uses one-sided RDMA READ/WRITE from the SmartNIC into accelerator
// memory for all mqueue management (§4.2 "Remote Message Queue Manager"),
// both for accelerators on the local PCIe fabric and for accelerators behind
// a remote host's RDMA NIC (§5.5) — the latter differ only by an extra
// network penalty, which is precisely what makes Lynx location-transparent.
package rdma

import (
	"fmt"
	"time"

	"lynx/internal/fabric"
	"lynx/internal/fault"
	"lynx/internal/memdev"
	"lynx/internal/model"
	"lynx/internal/sim"
)

// QPKind selects the transport of a queue pair.
type QPKind int

const (
	// RC is a Reliable Connection: ordered, acknowledged, no drops.
	RC QPKind = iota
	// UC is an Unreliable Connection: ordered but unacknowledged; the
	// receive side must provision credits (receive WQEs) or writes with
	// immediate are dropped. NICA's custom rings use UC (§5.2).
	UC
)

// String names the QP kind.
func (k QPKind) String() string {
	if k == UC {
		return "UC"
	}
	return "RC"
}

// OpCode identifies a work request type.
type OpCode int

const (
	// OpWrite is a one-sided RDMA WRITE.
	OpWrite OpCode = iota
	// OpRead is a one-sided RDMA READ.
	OpRead
	// OpBarrier is a zero-length ordered READ used as a write barrier
	// (§5.1 consistency workaround).
	OpBarrier
)

// WR is a work request posted to a QP's send queue.
type WR struct {
	Op     OpCode
	Region *memdev.Region
	Offset int
	Data   []byte // OpWrite payload
	Len    int    // OpRead length
	ID     uint64 // user cookie echoed in the completion

	// OnDeliver, when set on an OpWrite, is invoked at the simulated instant
	// the data lands in the target region — before the completion travels
	// back to the poster. Span instrumentation stamps queue-entry times here
	// so a consumer polling the written memory can never observe the message
	// before its stamp. Never called for dropped UC writes.
	OnDeliver func(at sim.Time)

	// reply, when set by the waiting helpers, receives this WR's CQE
	// directly so concurrent posters never steal each other's completions.
	// A WR without one is unsignaled: the transfer happens but its CQE is
	// surfaced nowhere. PostAndWaitT signals only every cqDrain-th WR, so a
	// batch of n writes generates ceil(n/cqDrain) completions, matching how
	// verbs applications suppress per-WQE signaling under doorbell batching.
	reply *sim.Chan[CQE]
}

// CQE is a completion queue entry. At is the instant the WR completed on the
// wire — for a READ, the instant its memory snapshot was taken. Under
// transport retries (fault plan go-back-N) completions are delivered in
// posting order while snapshots land in wire order, so a caller comparing
// successive reads of shared counters must order them by At, not by
// delivery.
type CQE struct {
	ID      uint64
	Op      OpCode
	Data    []byte // OpRead result
	Dropped bool   // UC write discarded for lack of receive credits
	Retried bool   // completed only after a transport-level retry (fault plan)
	At      sim.Time
}

// Engine is the RDMA engine of one NIC. Work requests from all QPs share the
// engine's hardware pipeline (a unit resource), reproducing the serialization
// that makes "one RC QP per accelerator" (§5.1) a sensible design point.
type Engine struct {
	sim    *sim.Sim
	params *model.Params
	fab    *fabric.Fabric
	nic    *fabric.Device
	pipe   *sim.Resource
	faults *fault.Plan

	qps     uint64
	ops     uint64
	retried uint64
}

// NewEngine creates the RDMA engine for the NIC device on fab.
func NewEngine(s *sim.Sim, p *model.Params, fab *fabric.Fabric, nic *fabric.Device) *Engine {
	return &Engine{sim: s, params: p, fab: fab, nic: nic, pipe: sim.NewResource(s, 1)}
}

// SetFaults installs a fault plan consulted per work request. A nil plan
// (the default) injects nothing.
func (e *Engine) SetFaults(pl *fault.Plan) { e.faults = pl }

// NIC returns the device the engine is embedded in.
func (e *Engine) NIC() *fabric.Device { return e.nic }

// Fabric returns the PCIe fabric the engine issues DMA on (for topology and
// utilization probes).
func (e *Engine) Fabric() *fabric.Fabric { return e.fab }

// Ops reports the number of work requests executed.
func (e *Engine) Ops() uint64 { return e.ops }

// Retried reports work requests that completed only after a transport-level
// retry injected by the fault plan.
func (e *Engine) Retried() uint64 { return e.retried }

// QP is a queue pair whose remote end is a window into target-device memory.
type QP struct {
	engine *Engine
	kind   QPKind
	target *fabric.Device
	// remote is non-zero when the target sits behind another host's NIC;
	// it is added to every operation's transit (each way), modelling the
	// extra InfiniBand network hop (§6.3 measures ~8 µs round trip).
	remote time.Duration

	hw       bool
	sq       *sim.Chan[WR]
	cur      WR // WR between dequeue and engine stage of the run task
	inflight []*inflightWR
	inflHead int

	// flFree, replyFree and frames recycle inflight nodes, reply channels
	// and post-and-wait frames so the per-operation hot path allocates
	// nothing once warm. Recycling changes no scheduling decision — only
	// where the bookkeeping structs live.
	flFree    []*inflightWR
	replyFree []*sim.Chan[CQE]
	frames    []*waitFrame

	credits  int // UC receive credits
	dropped  uint64
	posted   uint64
	complete uint64
}

// QPConfig parameterizes CreateQP.
type QPConfig struct {
	Kind QPKind
	// Remote marks the target as reachable only across the network.
	Remote bool
	// SQDepth bounds the send queue (0 = unbounded).
	SQDepth int
	// HWIssue marks the QP as driven by NIC-resident hardware (the Innova
	// AFU): posting costs no CPU time, and writes are fully pipelined
	// (posted semantics — the engine only pays its per-WQE processing time;
	// wire transit overlaps).
	HWIssue bool
}

// CreateQP connects a queue pair from the engine's NIC to the target device.
// The returned QP processes work requests in order on a dedicated engine
// context; completions are delivered in posting order.
func (e *Engine) CreateQP(target *fabric.Device, cfg QPConfig) *QP {
	if target.Mem == nil {
		panic(fmt.Sprintf("rdma: target %s has no DMA-visible memory", target.Name()))
	}
	if !target.Mem.BARCapable() {
		panic(fmt.Sprintf("rdma: target %s cannot expose memory on PCIe (no BAR)", target.Name()))
	}
	qp := &QP{
		engine: e,
		kind:   cfg.Kind,
		target: target,
		hw:     cfg.HWIssue,
		sq:     sim.NewChan[WR](e.sim, cfg.SQDepth),
	}
	if cfg.Remote {
		qp.remote = e.params.RDMARemotePenalty
	}
	e.qps++
	e.sim.SpawnTask("rdma-qp/"+target.Name(), func(t *sim.Task) { qp.run(t) })
	return qp
}

// inflightWR tracks one WR between engine processing and wire completion.
// Nodes are recycled through QP.flFree; onWire is the node's reusable
// wire-completion thunk, bound once and kept across the free list.
type inflightWR struct {
	qp     *QP
	wr     WR
	cqe    CQE
	done   bool
	onWire func()
}

// getInflight takes a tracking node for wr, reusing a free-listed one.
func (qp *QP) getInflight(wr WR) *inflightWR {
	if n := len(qp.flFree); n > 0 {
		fl := qp.flFree[n-1]
		qp.flFree[n-1] = nil
		qp.flFree = qp.flFree[:n-1]
		fl.wr = wr
		fl.cqe = CQE{ID: wr.ID, Op: wr.Op}
		fl.done = false
		return fl
	}
	fl := &inflightWR{qp: qp, wr: wr, cqe: CQE{ID: wr.ID, Op: wr.Op}}
	fl.onWire = fl.wireDone
	return fl
}

// wireDone runs at the simulated instant the WR's wire transfer completes:
// the data movement side effect, then in-order completion delivery.
func (fl *inflightWR) wireDone() {
	switch fl.wr.Op {
	case OpWrite:
		fl.wr.Region.WriteDMA(fl.wr.Offset, fl.wr.Data)
		if fl.wr.OnDeliver != nil {
			fl.wr.OnDeliver(fl.qp.engine.sim.Now())
		}
	case OpRead:
		fl.cqe.Data = fl.wr.Region.ReadDMA(fl.wr.Offset, fl.wr.Len)
	case OpBarrier:
		fl.wr.Region.Flush()
	}
	fl.qp.finish(fl)
}

// getReply takes a reply channel from the QP's pool. Reply channels only ever
// hold buffered completions (TryPut by finish, GetT by the poster), so an
// unbounded recycled channel behaves identically to a fresh exact-capacity
// one.
func (qp *QP) getReply() *sim.Chan[CQE] {
	if n := len(qp.replyFree); n > 0 {
		c := qp.replyFree[n-1]
		qp.replyFree[n-1] = nil
		qp.replyFree = qp.replyFree[:n-1]
		return c
	}
	return sim.NewChan[CQE](qp.engine.sim, 0)
}

// putReply returns a drained reply channel to the pool.
func (qp *QP) putReply(c *sim.Chan[CQE]) { qp.replyFree = append(qp.replyFree, c) }

// run is the QP's engine context, hosted on the run-to-completion task
// substrate (every RDMA operation in the system crosses this loop, making it
// one of the hottest processes in a run). WQEs are processed in order, each
// holding the engine pipeline only for its per-WQE processing time; wire
// transit overlaps across outstanding WRs (real NICs keep many requests in
// flight). Completions are still delivered strictly in posting order (RC
// semantics). The loop's continuations are bound once per QP, so the
// per-WQE scheduler cost is events only — no goroutine handoffs, no
// per-iteration closures.
func (qp *QP) run(t *sim.Task) {
	e := qp.engine
	var loop, acquired, engineDone func()
	var onWR func(WR)
	onWR = func(wr WR) {
		qp.cur = wr
		if e.pipe.AcquireT(t, acquired) {
			acquired()
		}
	}
	acquired = func() { t.Sleep(e.params.RDMAEngine, engineDone) }
	engineDone = func() {
		e.ops++
		e.pipe.Release()
		qp.process(qp.cur)
		loop()
	}
	loop = func() {
		if wr, ok := qp.sq.GetT(t, onWR); ok {
			onWR(wr)
		}
	}
	loop()
}

// process runs a WQE's post-engine stage: fault perturbation, transfer
// scheduling, and in-order completion delivery.
func (qp *QP) process(wr WR) {
	e := qp.engine
	fl := qp.getInflight(wr)
	qp.inflight = append(qp.inflight, fl)
	// Fault plan: a completion error is retried by the RC transport
	// (go-back-N), surfacing as extra latency and a flagged CQE; latency
	// spikes add transit without a retry.
	perturb, errored := e.faults.RDMAPerturb()
	if errored {
		e.retried++
		fl.cqe.Retried = true
	}
	switch wr.Op {
	case OpWrite:
		if qp.kind == UC && qp.credits <= 0 {
			qp.dropped++
			fl.cqe.Dropped = true
			qp.finish(fl)
			return
		}
		if qp.kind == UC {
			qp.credits--
		}
		transit := qp.remote + e.fab.TransferTime(e.nic, qp.target, len(wr.Data)) + perturb
		e.sim.After(transit, fl.onWire)
	case OpRead:
		transit := 2*qp.remote + e.fab.TransferTime(e.nic, qp.target, 32) +
			e.fab.TransferTime(qp.target, e.nic, wr.Len) + perturb
		e.sim.After(transit, fl.onWire)
	case OpBarrier:
		// The barrier read cannot be pipelined behind other traffic;
		// the paper measures ~5 µs for the full workaround (this read
		// plus the uncoalesced doorbell write).
		transit := 2*qp.remote + e.fab.TransferTime(e.nic, qp.target, 32) +
			e.fab.TransferTime(qp.target, e.nic, 8)
		// Aim the barrier's total at RDMAReadBarrier minus the
		// uncoalesced doorbell write it forces (~1.5 µs).
		if pad := e.params.RDMAReadBarrier - 1500*time.Nanosecond - transit - e.params.RDMAIssue - e.params.RDMAEngine; pad > 0 {
			transit += pad
		}
		transit += perturb
		e.sim.After(transit, fl.onWire)
	}
}

// finish marks a WR complete and delivers every leading completed CQE in
// posting order.
func (qp *QP) finish(fl *inflightWR) {
	fl.done = true
	fl.cqe.At = qp.engine.sim.Now()
	for qp.inflHead < len(qp.inflight) && qp.inflight[qp.inflHead].done {
		head := qp.inflight[qp.inflHead]
		qp.inflight[qp.inflHead] = nil
		qp.inflHead++
		qp.complete++
		if head.wr.reply != nil {
			head.wr.reply.TryPut(head.cqe)
		}
		// The CQE escaped by value; drop the node's references and recycle.
		head.wr = WR{}
		head.cqe = CQE{}
		qp.flFree = append(qp.flFree, head)
	}
	if qp.inflHead == len(qp.inflight) {
		qp.inflight, qp.inflHead = qp.inflight[:0], 0
	} else if qp.inflHead > 32 && qp.inflHead*2 >= len(qp.inflight) {
		// Queue stays non-empty under continuous load: compact (amortized
		// O(1)) so the backing array stays bounded.
		n := copy(qp.inflight, qp.inflight[qp.inflHead:])
		for i := n; i < len(qp.inflight); i++ {
			qp.inflight[i] = nil
		}
		qp.inflight = qp.inflight[:n]
		qp.inflHead = 0
	}
}

// ---------------------------------------------------------------------------
// Posting API. Every initiator runs on the run-to-completion task substrate,
// so each call takes the posting task and a continuation.

// PostT enqueues a work request, charging the posting task the CPU-side
// issue cost ("less than 1 µsec", §5.1) unless the QP is hardware driven; k
// runs once the WR has entered the send queue. Without a reply channel the
// WR is unsignaled: its completion surfaces nowhere.
func (qp *QP) PostT(t *sim.Task, wr WR, k func()) {
	if qp.hw {
		qp.posted++
		if qp.sq.PutT(t, wr, k) {
			k()
		}
		return
	}
	t.Sleep(qp.engine.params.RDMAIssue, func() {
		qp.posted++
		if qp.sq.PutT(t, wr, k) {
			k()
		}
	})
}

// PostManyT enqueues a run of work requests under a single doorbell
// (multi-WQE posting): the CPU pays one issue cost for the whole group
// instead of one per WQE, then the WRs enter the send queue in order; k runs
// when all are enqueued. Hardware-driven QPs skip the issue cost entirely,
// as with PostT. The engine-side pipeline cost and wire time remain per-WR —
// doorbell coalescing amortizes only the CPU touch, as on real verbs.
func (qp *QP) PostManyT(t *sim.Task, wrs []WR, k func()) {
	if len(wrs) == 0 {
		k()
		return
	}
	if qp.hw {
		qp.postAllT(t, wrs, k)
		return
	}
	t.Sleep(qp.engine.params.RDMAIssue, func() { qp.postAllT(t, wrs, k) })
}

// postAllT enqueues wrs in order. Unbounded send queues (the common case)
// accept every WR inline; a bounded queue at capacity parks the task and the
// chain resumes where it stopped.
func (qp *QP) postAllT(t *sim.Task, wrs []WR, k func()) {
	for i := range wrs {
		qp.posted++
		if qp.sq.TryPut(wrs[i]) {
			continue
		}
		rest := wrs[i+1:]
		qp.sq.PutT(t, wrs[i], func() { qp.postAllT(t, rest, k) })
		return
	}
	k()
}

// PostAndWaitT posts wrs in doorbell groups of at most doorbell WRs (one
// issue cost per group) and k runs with the final CQE once the last
// completes. The completion wait is checkpointed: a reply is requested on
// every cqDrain-th WR and on the final one, and since RC QPs complete in
// posting order, observing a checkpoint CQE implies every preceding WR is
// done — ceil(n/cqDrain) wakeups instead of n. doorbell/cqDrain values below
// 1 mean 1, which degenerates to per-message post-and-wait. wrs must stay
// untouched until k runs.
func (qp *QP) PostAndWaitT(t *sim.Task, wrs []WR, doorbell, cqDrain int, k func(CQE)) {
	if len(wrs) == 0 {
		k(CQE{})
		return
	}
	qp.getWaitFrame().start(t, wrs, doorbell, cqDrain, k)
}

// postWaitT posts wr and k runs with its completion: PostAndWaitT of one WR.
func (qp *QP) postWaitT(t *sim.Task, wr WR, k func(CQE)) {
	f := qp.getWaitFrame()
	f.one[0] = wr
	f.start(t, f.one[:], 1, 1, k)
}

// waitFrame carries one PostAndWaitT call through its doorbell groups and
// checkpoint waits without per-call closures: the continuations are bound
// once when the frame is created, and the call's state travels in its
// fields. Frames are pooled per QP; collect recycles the frame before
// invoking k, so a post issued from inside k reuses it.
type waitFrame struct {
	qp        *QP
	t         *sim.Task
	wrs       []WR
	one       [1]WR // backing store of a single-WR post
	doorbell  int
	off, end  int // the doorbell group being enqueued is wrs[off:end]
	remaining int // checkpoint completions still to collect
	last      CQE
	reply     *sim.Chan[CQE]
	k         func(CQE)

	enqueueK, postGroupK func()    // pre-bound f.enqueue, f.postGroup
	got                  func(CQE) // pre-bound: one checkpoint completion arrived
}

func (qp *QP) getWaitFrame() *waitFrame {
	if n := len(qp.frames); n > 0 {
		f := qp.frames[n-1]
		qp.frames = qp.frames[:n-1]
		return f
	}
	f := &waitFrame{qp: qp}
	f.enqueueK, f.postGroupK = f.enqueue, f.postGroup
	f.got = func(c CQE) {
		f.last = c
		f.remaining--
		f.collect()
	}
	return f
}

// start marks the checkpoint WRs of the call and posts its first group.
func (f *waitFrame) start(t *sim.Task, wrs []WR, doorbell, cqDrain int, k func(CQE)) {
	f.t, f.wrs, f.doorbell, f.k = t, wrs, max(doorbell, 1), k
	cqDrain = max(cqDrain, 1)
	f.reply = f.qp.getReply()
	for i := range wrs {
		if (i+1)%cqDrain == 0 || i == len(wrs)-1 {
			wrs[i].reply = f.reply
			f.remaining++
		}
	}
	f.postGroup()
}

// postGroup posts the next doorbell group, charging the posting task one
// issue cost unless the QP is hardware driven; after the last group it
// collects the checkpoint completions.
func (f *waitFrame) postGroup() {
	if f.off >= len(f.wrs) {
		f.collect()
		return
	}
	f.end = min(f.off+f.doorbell, len(f.wrs))
	if f.qp.hw {
		f.enqueue()
		return
	}
	f.t.Sleep(f.qp.engine.params.RDMAIssue, f.enqueueK)
}

// enqueue puts the group's WRs into the send queue, then posts the next.
func (f *waitFrame) enqueue() {
	group := f.wrs[f.off:f.end]
	f.off = f.end
	f.qp.postAllT(f.t, group, f.postGroupK)
}

// collect waits for the remaining checkpoint completions, then recycles the
// frame and its reply channel and runs k with the final CQE.
func (f *waitFrame) collect() {
	for f.remaining > 0 {
		cqe, ok := f.reply.GetT(f.t, f.got)
		if !ok {
			return
		}
		f.last = cqe
		f.remaining--
	}
	qp, k, last := f.qp, f.k, f.last
	qp.putReply(f.reply)
	*f = waitFrame{qp: qp, enqueueK: f.enqueueK, postGroupK: f.postGroupK, got: f.got}
	qp.frames = append(qp.frames, f)
	k(last)
}

// WriteT performs a one-sided RDMA WRITE; k runs with the completion.
func (qp *QP) WriteT(t *sim.Task, region *memdev.Region, off int, data []byte, k func(CQE)) {
	qp.WriteNotifyT(t, region, off, data, nil, k)
}

// WriteNotifyT is WriteT that additionally invokes onDeliver (when non-nil)
// at the simulated instant the data lands in the target region, before the
// completion returns.
func (qp *QP) WriteNotifyT(t *sim.Task, region *memdev.Region, off int, data []byte, onDeliver func(at sim.Time), k func(CQE)) {
	qp.postWaitT(t, WR{Op: OpWrite, Region: region, Offset: off, Data: data, OnDeliver: onDeliver}, k)
}

// ReadT performs a one-sided RDMA READ of n bytes; k runs with the bytes.
func (qp *QP) ReadT(t *sim.Task, region *memdev.Region, off, n int, k func([]byte)) {
	qp.ReadCQET(t, region, off, n, func(cqe CQE) { k(cqe.Data) })
}

// ReadCQET is ReadT with the full completion, whose At field orders
// snapshots of shared counters under retries (see CQE).
func (qp *QP) ReadCQET(t *sim.Task, region *memdev.Region, off, n int, k func(CQE)) {
	qp.postWaitT(t, WR{Op: OpRead, Region: region, Offset: off, Len: n}, k)
}

// BarrierT performs the RDMA-read write barrier of §5.1: k runs once earlier
// writes to the region are forced visible. Its cost is a full read round
// trip (issue + engine + PCIe RTT, ~2.5 µs); together with the separate
// doorbell write it forces (coalescing is impossible, so a message needs
// three transactions instead of one) the total overhead comes to the ~5 µs
// per message the paper measures.
func (qp *QP) BarrierT(t *sim.Task, region *memdev.Region, k func()) {
	qp.postWaitT(t, WR{Op: OpBarrier, Region: region}, func(CQE) { k() })
}

// AddCredits provisions n UC receive credits (the NICA helper thread's ring
// refill, §5.2). Panics on RC QPs, which need no credits.
func (qp *QP) AddCredits(n int) {
	if qp.kind != UC {
		panic("rdma: credits only apply to UC QPs")
	}
	qp.credits += n
}

// Credits reports remaining UC receive credits.
func (qp *QP) Credits() int { return qp.credits }

// Dropped reports UC writes discarded for lack of credits.
func (qp *QP) Dropped() uint64 { return qp.dropped }

// Stats reports posted and completed WR counts.
func (qp *QP) Stats() (posted, completed uint64) { return qp.posted, qp.complete }

// Target returns the device at the remote end of the QP.
func (qp *QP) Target() *fabric.Device { return qp.target }

// Remote reports whether the QP crosses the network.
func (qp *QP) Remote() bool { return qp.remote > 0 }
