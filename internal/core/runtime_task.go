// The runtime's processes and the stages they run. Every process Start
// spawns — the UDP receive workers, the TCP accept and per-connection receive
// loops, the client-mqueue pumps and retry timers, the replication pump, the
// Remote MQ Manager sweeps — and the monitor run on the run-to-completion
// Task substrate: each wake executes inline in the scheduler loop, with no
// goroutine switch. The stages here are therefore written in
// continuation-passing style, and each has exactly one form: an unbatched
// runtime is a quantum of 1, and every request enters through the dispatcher.
//
// A loop that runs once per record binds its continuations once, when its
// task starts, and passes per-record state through variables they share
// instead of capturing it in a fresh closure per record.
package core

import (
	"fmt"
	"time"

	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/rdma"
	"lynx/internal/sim"
	"lynx/internal/trace"
)

// execFrame carries one in-flight task-substrate exec call through its
// serialized and parallel resource holds without per-call closures: the two
// continuations are bound once when the frame is created, and the call's
// (task, start time, shares, k) travel through the frame's fields. finish
// copies everything to locals and recycles the frame before invoking k, so
// an exec issued from inside k reuses it immediately.
type execFrame struct {
	rt    *Runtime
	t     *sim.Task
	t0    sim.Time
	par   time.Duration // parallel share still to hold after the serial one
	total time.Duration // busy total subtracted from elapsed to get the wait
	k     func(qw time.Duration)

	afterSerial func() // pre-bound f.holdCores
	afterCores  func() // pre-bound f.finish
}

func (rt *Runtime) getExecFrame() *execFrame {
	if n := len(rt.execFrames); n > 0 {
		f := rt.execFrames[n-1]
		rt.execFrames = rt.execFrames[:n-1]
		return f
	}
	f := &execFrame{rt: rt}
	f.afterSerial = f.holdCores
	f.afterCores = f.finish
	return f
}

func (f *execFrame) holdCores() {
	f.rt.cores.WithT(f.t, f.par, f.afterCores)
}

func (f *execFrame) finish() {
	rt, t, t0, total, k := f.rt, f.t, f.t0, f.total, f.k
	f.t, f.k = nil, nil
	rt.execFrames = append(rt.execFrames, f)
	k(t.Now().Sub(t0) - total)
}

// execT charges the frontend CPU work of n equal-cost messages processed in
// one pass, splitting it into the serialized stack section (the shared VMA
// ring + dispatcher state) and the parallel remainder (see
// model.StackSerialFraction). The serialized section is entered once for the
// whole run: its per-message fixed portion (model.SerialBatchFixed — the ring
// doorbell read, dispatcher lock handoff) is paid once, the remainder scales
// with n; the parallel share is n full units, since per-message payload work
// does not amortize. k runs once both shares have been held, with the time
// the work queued for a core or the serial section beyond the charged cost —
// the dispatcher-inbox wait the attribution profile books against PhaseSNIC.
// The caller apportions it across the run's spans with shareWait, so
// attribution stays telescoping-exact.
func (rt *Runtime) execT(t *sim.Task, cost time.Duration, n int, k func(qw time.Duration)) {
	scaled := rt.plat.Machine.Scale(cost)
	ser1 := time.Duration(float64(scaled) * rt.plat.Params.StackSerialFraction)
	fixed := time.Duration(float64(ser1) * rt.plat.Params.SerialBatchFixed)
	ser := fixed + time.Duration(n)*(ser1-fixed)
	par := time.Duration(n) * (scaled - ser1)
	rt.cpuBusy += ser + par
	rt.serialBusy += ser
	rt.execCalls += uint64(n)
	f := rt.getExecFrame()
	f.t, f.t0, f.par, f.total, f.k = t, t.Now(), par, ser+par, k
	rt.serial.WithT(t, ser, f.afterSerial)
}

// execParallelT charges CPU work with no serialized section: client-mqueue
// bindings each own a dedicated connection context, so they scale with
// cores. Like execT, k runs with the queueing delay beyond the charged cost.
func (rt *Runtime) execParallelT(t *sim.Task, cost time.Duration, k func(qw time.Duration)) {
	scaled := rt.plat.Machine.Scale(cost)
	rt.cpuBusy += scaled
	f := rt.getExecFrame()
	f.t, f.t0, f.par, f.total, f.k = t, t.Now(), scaled, scaled, k
	rt.cores.WithT(t, scaled, f.afterCores)
}

// inMsg is one received client message: its bytes, where its response must
// go, and when the network stack queued it (0 if the transport cannot say).
type inMsg struct {
	payload []byte
	to      replyTo
	enq     sim.Time
}

// dispatcher is the Message Dispatcher of one receive task (a UDP worker or a
// TCP connection). Every client request reaches stage 0 through it, as a run
// of one or more messages: an unbatched runtime is a quantum of 1. A run is
// charged the transport stack cost and then the dispatch cost, each entering
// the serialized section once (execT); every message's slot is reserved and
// its reply bookkeeping recorded before any RDMA is posted; and the
// message-bearing writes are posted in doorbell groups with a checkpointed
// completion wait — ceil(k/doorbell) issue charges and ceil(k/cqDrain)
// wakeups for a k-message run, one of each for a run of one.
//
// Bookkeeping precedes posting: with only checkpoint completions awaited, an
// early message of a run lands — and its response can race back through the
// MQ manager — before the posting context regains control. Recording the
// pending-reply FIFO entry at preparation time keeps that response from being
// misread as an orphan. StagePushed is stamped by the write's delivery hook.
// The preparation loop is sequential: a refresh inside PrepareWriteT parks
// the task and the loop resumes in its continuation.
type dispatcher struct {
	s    *Service
	t    *sim.Task
	msgs []inMsg // the receive task fills msgs[:n] and calls receiveT
	n    int
	k    func()
	cost time.Duration // transport stack cost per message
	// stacked continues a run once its stack cost is charged. It and the
	// rest of the chain are bound once, so a run allocates nothing here.
	stacked func(qw time.Duration)
}

// newDispatcher binds the dispatcher of receive task t, for runs of at most
// quantum messages each charged stack cost.
func (s *Service) newDispatcher(t *sim.Task, quantum int, cost time.Duration) *dispatcher {
	rt := s.rt
	type preparedWR struct {
		wr rdma.WR
		qp *rdma.QP
	}
	d := &dispatcher{s: s, t: t, msgs: make([]inMsg, quantum), cost: cost}
	preps := make([]preparedWR, 0, quantum)
	wrs := make([]rdma.WR, 0, quantum)
	var (
		qw       time.Duration // the dispatch charge's queueing wait
		i, qi    int           // the message being prepared and its queue
		bq       *boundQueue
		prepFrom func(from int)
		postNext func()
	)
	// book records prepared message i: shed on a full ring, otherwise its
	// reply destination is queued, it counts as received, and its write
	// joins the run's posts.
	book := func(wr rdma.WR, slot int, err error) {
		m := &d.msgs[i]
		if err != nil {
			s.shed(t.Now(), bq, qi, trace.SpanID(m.payload))
			return
		}
		bq.pending[slot] = append(bq.pending[slot], m.to)
		rt.stats.Received++
		rt.plat.Tracer.Emit(t.Now(), trace.Dispatch, uint64(qi), uint64(slot))
		if s.repl != nil {
			s.repl.onDispatch(m.payload)
		}
		preps = append(preps, preparedWR{wr: wr, qp: bq.q.QP()})
	}
	prepared := func(wr rdma.WR, slot int, err error) {
		book(wr, slot, err)
		prepFrom(i + 1)
	}
	prepFrom = func(from int) {
		for i = from; i < d.n; i++ {
			m := &d.msgs[i]
			qi = s.pick(m.to.origin(), 0)
			bq = s.stages[0][qi]
			id := trace.SpanID(m.payload)
			rt.plat.Spans.AddWait(id, trace.PhaseSNIC, shareWait(qw, d.n, i))
			rt.plat.Spans.Stamp(id, trace.StageDispatch, t.Now())
			rt.plat.Spans.SetQueue(id, qi)
			wr, slot, err, inline := bq.q.PrepareWriteT(t, m.payload, 0, prepared)
			if !inline {
				return
			}
			book(wr, slot, err)
		}
		postNext()
	}
	posted := func(rdma.CQE) { postNext() }
	// postNext posts the prepared writes of one QP and waits for them, until
	// none are left; then the run is done.
	postNext = func() {
		if len(preps) == 0 {
			k := d.k
			d.k = nil
			k()
			return
		}
		qp := preps[0].qp
		wrs = wrs[:0]
		rest := preps[:0]
		for _, pr := range preps {
			if pr.qp == qp {
				wrs = append(wrs, pr.wr)
			} else {
				rest = append(rest, pr)
			}
		}
		preps = rest
		batch := rt.plat.Params.Batch
		qp.PostAndWaitT(t, wrs, batch.EffDoorbell(), batch.EffCQDrain(), posted)
	}
	charged := func(w time.Duration) {
		qw = w
		preps = preps[:0]
		prepFrom(0)
	}
	d.stacked = func(qw time.Duration) {
		msgs := d.msgs[:d.n]
		for i, m := range msgs {
			rt.plat.Spans.AddWait(trace.SpanID(m.payload), trace.PhaseSNIC, shareWait(qw, d.n, i))
		}
		for _, m := range msgs {
			rt.plat.Tracer.Emit(t.Now(), trace.Recv, uint64(len(m.payload)), uint64(s.port))
		}
		rt.execT(t, rt.plat.Params.DispatchCost, d.n, charged)
	}
	return d
}

// receiveT takes the run msgs[:n] off the transport and dispatches it: it
// stamps each span's SNIC arrival and network-queue wait and charges the
// stack cost for the run; k runs once every write of the run completed.
func (d *dispatcher) receiveT(n int, k func()) {
	rt, now := d.s.rt, d.t.Now()
	for _, m := range d.msgs[:n] {
		id := trace.SpanID(m.payload)
		rt.plat.Spans.Stamp(id, trace.StageSnicRecv, now)
		if m.enq > 0 {
			rt.plat.Spans.AddWait(id, trace.PhaseNetwork, now.Sub(m.enq))
		}
	}
	d.n, d.k = n, k
	rt.execT(d.t, d.cost, n, d.stacked)
}

// forwardResponsesT is the Message Forwarder: it routes the run of TX
// messages drained from one server queue in a single manager sweep visit
// back to their clients, entering the serialized section once per charge for
// the whole run. Each response first pops its reply FIFO, is checked for an
// orphan, and may be parked by the replicator for peer acks; only the m
// responses left are then charged the transport send cost and sent. A parked
// response is charged its send once, by the replicator's pump, when its
// quorum releases it. msgs is compacted in place to the sent responses, whose
// destinations go into tos (scratch of at least len(msgs)); every sent span
// gets its share of the whole visit's wait, split over all n drained. With a
// single message the charges are two plain exec calls.
func (s *Service) forwardResponsesT(t *sim.Task, bq *boundQueue, msgs []mqueue.TxMsg, tos []replyTo, k func()) {
	rt := s.rt
	n := len(msgs)
	for i := range msgs {
		rt.plat.Tracer.Emit(t.Now(), trace.Drain, uint64(msgs[i].Slot), uint64(msgs[i].Corr))
		rt.plat.Spans.Stamp(trace.SpanID(msgs[i].Payload), trace.StageDrain, t.Now())
	}
	rt.execT(t, rt.plat.Params.ForwardCost, n, func(qw time.Duration) {
		m := 0
		for _, msg := range msgs {
			fifo := bq.pending[msg.Corr]
			if len(fifo) == 0 {
				// Response without a matching request (app bug); drop.
				rt.plat.Check.Failf("core.orphan-response",
					"service port %d: TX message for slot %d has no pending request", s.port, msg.Corr)
				continue
			}
			to := fifo[0]
			bq.pending[msg.Corr] = fifo[1:]
			if s.repl != nil && s.repl.onResponse(to, msg.Payload) {
				continue
			}
			rt.inTransit++
			msgs[m], tos[m] = msg, to
			m++
		}
		if m == 0 {
			k()
			return
		}
		rt.execT(t, s.sendCost(), m, func(qw2 time.Duration) {
			qw += qw2
			for j, msg := range msgs[:m] {
				s.send(tos[j], msg.Payload)
				rt.stats.Responded++
				rt.inTransit--
				id := trace.SpanID(msg.Payload)
				rt.plat.Spans.AddWait(id, trace.PhaseSNIC, shareWait(qw, n, j))
				rt.plat.Spans.Stamp(id, trace.StageForward, t.Now())
				rt.plat.Tracer.Emit(t.Now(), trace.Forward, uint64(len(msg.Payload)), 0)
			}
			k()
		})
	})
}

// sendCost is the transport stack cost of sending one response.
func (s *Service) sendCost() time.Duration {
	if s.proto == TCP {
		return s.rt.tcpCost()
	}
	return s.rt.udpCost()
}

// send transmits one response to the client its request came from.
func (s *Service) send(to replyTo, payload []byte) {
	if s.proto == UDP {
		s.udpSock.SendTo(to.udpFrom, payload)
	} else if to.conn != nil {
		_ = to.conn.Send(payload)
	}
}

// forwardOutT ships one accelerator-originated message of a client mqueue
// to its backend.
func (cb *ClientBinding) forwardOutT(t *sim.Task, msg mqueue.TxMsg, k func()) {
	rt := cb.rt
	rt.plat.Tracer.Emit(t.Now(), trace.BackendOut, uint64(len(msg.Payload)), uint64(cb.qi))
	rt.plat.Spans.Stamp(trace.SpanID(msg.Payload), trace.StageBackendOut, t.Now())
	rt.execParallelT(t, rt.plat.Params.ForwardCost, func(time.Duration) {
		rt.stats.Forwarded++
		switch cb.proto {
		case UDP:
			rt.execParallelT(t, rt.udpCost(), func(time.Duration) {
				cb.sock.SendTo(cb.dst, msg.Payload)
				if rt.plat.Params.ClientRetryMax > 0 && rt.plat.Params.ClientRetryTimeout > 0 {
					cb.outstanding = append(cb.outstanding, pendingSend{
						payload:  msg.Payload,
						deadline: t.Now().Add(rt.plat.Params.ClientRetryTimeout),
					})
				}
				k()
			})
		case TCP:
			rt.execParallelT(t, rt.tcpCost(), func(time.Duration) {
				if cb.conn != nil {
					if err := cb.conn.Send(msg.Payload); err != nil {
						// Report the connection error through mqueue
						// metadata (§5.1): push an empty error-flagged
						// message.
						cb.bq.q.PushT(t, nil, 1, func(int, error) { k() })
						return
					}
				}
				k()
			})
		}
	})
}

// relayT moves the run of TX messages drained from one queue of a non-final
// stage into the next stage, one message at a time: each pops its reply FIFO,
// is checked for an orphan, is charged one dispatch (no network stack), and
// is pushed into the next stage's queue picked by the request's origin. The
// reply destination travels with it, so the final stage's output returns to
// the client through forwardResponsesT.
func (s *Service) relayT(t *sim.Task, bq *boundQueue, msgs []mqueue.TxMsg, k func()) {
	rt := s.rt
	next := bq.stage + 1
	var relay func(j int)
	relay = func(j int) {
		if j >= len(msgs) {
			k()
			return
		}
		msg := msgs[j]
		fifo := bq.pending[msg.Corr]
		if len(fifo) == 0 {
			rt.plat.Check.Failf("core.orphan-response",
				"service port %d stage %d: TX message for slot %d has no pending request",
				s.port, bq.stage, msg.Corr)
			relay(j + 1)
			return
		}
		to := fifo[0]
		bq.pending[msg.Corr] = fifo[1:]
		rt.inTransit++
		rt.execT(t, rt.plat.Params.DispatchCost, 1, func(time.Duration) {
			s.relayed++
			rt.plat.Tracer.Emit(t.Now(), trace.Relay, uint64(next), 0)
			from := to.udpFrom
			if to.conn != nil {
				from = to.conn.RemoteAddr()
			}
			qi := s.pick(from, next)
			nq := s.stages[next][qi]
			nq.q.PushT(t, msg.Payload, 0, func(slot int, err error) {
				if err != nil {
					s.shed(t.Now(), nq, qi, trace.SpanID(msg.Payload))
				} else {
					nq.pending[slot] = append(nq.pending[slot], to)
				}
				rt.inTransit--
				relay(j + 1)
			})
		})
	}
	relay(0)
}

// serveTCPT is the TCP side of the Network Server ("lynx/tcp-accept"): it
// accepts connections and spawns one receive task per connection.
func (s *Service) serveTCPT(t *sim.Task) {
	var accept func()
	spawn := func(conn *netstack.TCPConn) {
		s.rt.plat.Sim.SpawnTask(fmt.Sprintf("lynx/tcp-rx:%d", s.port), func(t *sim.Task) { s.recvTCPT(t, conn) })
		accept()
	}
	accept = func() {
		if conn, ok := s.tcpList.AcceptT(t, spawn); ok {
			spawn(conn)
		}
	}
	accept()
}

// recvTCPT is one connection's receive loop ("lynx/tcp-rx"): each framed
// message is dispatched as a run of one. It ends when the connection closes
// or resets.
func (s *Service) recvTCPT(t *sim.Task, conn *netstack.TCPConn) {
	d := s.newDispatcher(t, 1, s.rt.tcpCost())
	var loop func()
	got := func(m []byte, enq sim.Time, err error) {
		if err != nil {
			return
		}
		d.msgs[0] = inMsg{payload: m, to: replyTo{conn: conn}, enq: enq}
		d.receiveT(1, loop)
	}
	loop = func() { conn.RecvQueuedT(t, got) }
	loop()
}

// recvUDPT is one UDP receive worker ("lynx/udp-rx"); one runs per worker
// core, all draining the service's shared socket (RSS-like). Each wake takes
// the datagram that woke it plus whatever else is already queued, up to the
// dispatcher quantum, optionally lingers one coalescing window for
// stragglers, and dispatches the run.
func (s *Service) recvUDPT(t *sim.Task) {
	batch := s.rt.plat.Params.Batch
	quantum := batch.EffQuantum()
	d := s.newDispatcher(t, quantum, s.rt.udpCost())
	var n int
	var loop func()
	take := func(dg netstack.Datagram) {
		d.msgs[n] = inMsg{payload: dg.Payload, to: replyTo{udpFrom: dg.From}, enq: dg.EnqueuedAt}
		n++
	}
	drain := func() {
		for n < quantum {
			dg, ok := s.udpSock.TryRecv()
			if !ok {
				return
			}
			take(dg)
		}
	}
	// linger ends a coalescing window: take the stragglers, then dispatch.
	linger := func() {
		drain()
		d.receiveT(n, loop)
	}
	got := func(dg netstack.Datagram) {
		n = 0
		take(dg)
		drain()
		if win := batch.CoalesceWindow; win > 0 && n < quantum {
			t.Sleep(win, linger)
			return
		}
		d.receiveT(n, loop)
	}
	loop = func() {
		if dg, ok := s.udpSock.RecvT(t, got); ok {
			got(dg)
		}
	}
	loop()
}

// pumpT is a client binding's inbound process ("lynx/client-mq"): it sets up
// the static connection to the backend, then pushes every backend response
// into the client mqueue's RX ring. A full ring drops the response.
func (cb *ClientBinding) pumpT(t *sim.Task) {
	rt := cb.rt
	var msg []byte
	var loop func()
	pushed := func(_ int, err error) {
		if err != nil {
			rt.drop(t.Now(), DropBackend, uint64(cb.qi))
		}
		loop()
	}
	push := func(time.Duration) {
		if cb.proto == UDP && len(cb.outstanding) > 0 {
			// FIFO response matching settles the oldest request (late
			// duplicates of retransmitted requests settle newer ones —
			// harmless for idempotent backends).
			cb.outstanding = cb.outstanding[1:]
		}
		rt.plat.Tracer.Emit(t.Now(), trace.BackendIn, uint64(len(msg)), uint64(cb.qi))
		rt.plat.Spans.Stamp(trace.SpanID(msg), trace.StageBackendIn, t.Now())
		cb.bq.q.PushT(t, msg, 0, pushed)
	}
	switch cb.proto {
	case UDP:
		rt.nextEphemeral++
		sock, err := rt.plat.NetHost.UDPBind(52000 + rt.nextEphemeral)
		if err != nil {
			return
		}
		cb.sock = sock
		got := func(dg netstack.Datagram) {
			msg = dg.Payload
			rt.execParallelT(t, rt.udpCost(), push)
		}
		loop = func() {
			if dg, ok := sock.RecvT(t, got); ok {
				got(dg)
			}
		}
		loop()
	case TCP:
		got := func(m []byte, _ sim.Time, err error) {
			if err != nil {
				// §5.1: error status delivered via metadata.
				cb.bq.q.PushT(t, nil, 1, func(int, error) {})
				return
			}
			msg = m
			rt.execParallelT(t, rt.tcpCost(), push)
		}
		loop = func() { cb.conn.RecvQueuedT(t, got) }
		_ = rt.plat.NetHost.TCPDialT(t, cb.dst, func(conn *netstack.TCPConn) {
			cb.conn = conn
			loop()
		})
	}
}

// retryT is a UDP client binding's retransmission timer
// ("lynx/client-retry"): every quarter timeout it resends each expired
// request, doubling its deadline per attempt, and drops the ones out of
// attempts.
func (cb *ClientBinding) retryT(t *sim.Task) {
	rt := cb.rt
	timeout := rt.plat.Params.ClientRetryTimeout
	var (
		now        sim.Time
		head       *pendingSend
		tick, scan func()
	)
	resend := func(time.Duration) {
		cb.sock.SendTo(cb.dst, head.payload)
		// Exponential backoff: double the wait per attempt.
		head.deadline = now.Add(timeout << uint(head.attempts))
		scan()
	}
	scan = func() {
		for len(cb.outstanding) > 0 {
			head = &cb.outstanding[0]
			if now < head.deadline {
				break
			}
			if head.attempts >= rt.plat.Params.ClientRetryMax {
				cb.outstanding = cb.outstanding[1:]
				rt.drop(now, DropBackend, uint64(cb.qi))
				continue
			}
			head.attempts++
			rt.stats.Retries++
			rt.plat.Tracer.Emit(now, trace.Retry, uint64(cb.qi), uint64(head.attempts))
			rt.execParallelT(t, rt.udpCost(), resend)
			return
		}
		t.Sleep(timeout/4, tick)
	}
	tick = func() {
		if cb.sock == nil {
			t.Sleep(timeout/4, tick)
			return
		}
		now = t.Now()
		scan()
	}
	t.Sleep(timeout/4, tick)
}

// mqManager is one context of an accelerator's Remote MQ Manager and Message
// Forwarder ("lynx/mq-manager"). It owns the queues w, w+stride, ... of the
// accelerator's group. One sweep refreshes the group's header counters,
// drains each owned queue's TX ring and routes what it drained to the
// queue's sink, commits the drain, runs the watchdog, and when nothing was
// drained waits for header activity. The sweep is the hottest always-on
// process (it wakes for every accelerator response); it visits one queue at
// a time, so the queue being visited travels in the manager's fields and
// every continuation is bound once.
type mqManager struct {
	rt        *Runtime
	h         *AccelHandle
	t         *sim.Task
	w, stride int
	gate      *sim.Gate
	wd        time.Duration // watchdog timeout
	health    []qhealth
	// txBuf takes one drain of up to the CQ-drain budget (1 when
	// unbatched); fwdTo is the forwarder's scratch for its destinations.
	txBuf []mqueue.TxMsg
	fwdTo []replyTo

	v       uint64 // activity-gate version the sweep started at
	drained bool   // the sweep drained at least one message
	i, j, n int    // the visited queue; a client-binding run's cursor j of n

	sweepK, refreshed, drainK, committed, forwardK, pollK func()
	popped                                                func(n int)
	woke                                                  func(bool)
}

// qhealth is the watchdog's view of one queue: the accelerator progress
// counters last observed and when they last moved. A queue holding in-flight
// messages with neither counter advancing for the timeout is marked failed;
// it is restored the moment it makes progress.
type qhealth struct {
	rxc, txs uint64
	last     sim.Time
}

func (rt *Runtime) newMQManager(h *AccelHandle, w, stride int) *mqManager {
	m := &mqManager{
		rt: rt, h: h, w: w, stride: stride,
		gate:  h.group.ActivityGate(),
		wd:    rt.plat.Params.MQWatchdogTimeout,
		txBuf: make([]mqueue.TxMsg, rt.plat.Params.Batch.EffCQDrain()),
	}
	m.health = make([]qhealth, h.group.Len())
	for i := range m.health {
		m.health[i].last = rt.plat.Sim.Now()
	}
	m.fwdTo = make([]replyTo, len(m.txBuf))
	m.sweepK = m.sweep
	m.refreshed = func() {
		m.drained = false
		m.visit(m.w)
	}
	m.drainK = m.drain
	m.popped = m.route
	m.committed = m.watch
	m.forwardK = m.forwardOut
	m.pollK = func() { m.t.Sleep(m.rt.plat.Params.MQPollInterval/2, m.sweepK) }
	m.woke = func(bool) { m.pollK() }
	return m
}

// run is the manager's task body.
func (m *mqManager) run(t *sim.Task) { m.t = t; m.sweep() }

// sweep starts one pass over the owned queues with a header refresh.
func (m *mqManager) sweep() {
	m.v = m.gate.Version()
	m.h.group.RefreshT(m.t, m.refreshed)
}

// visit moves to owned queue i, or ends the pass after the last one.
func (m *mqManager) visit(i int) {
	if i >= m.h.group.Len() {
		m.idle()
		return
	}
	m.i = i
	m.drain()
}

// drain pops the next run of the visited queue's TX ring, or commits once
// the ring is empty.
func (m *mqManager) drain() {
	q := m.h.group.Queue(m.i)
	if !q.Ready() {
		m.commit()
		return
	}
	q.PopTxManyT(m.t, len(m.txBuf), m.txBuf, m.popped)
}

// route hands the n messages drained from the visited queue to its sink,
// then drains again.
func (m *mqManager) route(n int) {
	if n == 0 {
		m.commit()
		return
	}
	m.drained = true
	sk := m.h.sinks[m.i]
	switch {
	case sk.svc != nil && sk.bq.stage+1 < len(sk.svc.stages):
		sk.svc.relayT(m.t, sk.bq, m.txBuf[:n], m.drainK)
	case sk.svc != nil:
		sk.svc.forwardResponsesT(m.t, sk.bq, m.txBuf[:n], m.fwdTo, m.drainK)
	case sk.cb != nil:
		m.j, m.n = 0, n
		m.forwardOut()
	case sk.rp != nil:
		for _, msg := range m.txBuf[:n] {
			sk.rp.r.onAck(sk.rp, msg.Payload)
		}
		m.drain()
	default:
		m.drain()
	}
}

// forwardOut ships the client-binding messages of a run to their backend one
// at a time.
func (m *mqManager) forwardOut() {
	if m.j >= m.n {
		m.drain()
		return
	}
	m.j++
	m.h.sinks[m.i].cb.forwardOutT(m.t, m.txBuf[m.j-1], m.forwardK)
}

// commit publishes the visited queue's TX-consumed counter.
func (m *mqManager) commit() {
	m.h.group.Queue(m.i).CommitTxT(m.t, m.committed)
}

// watch runs the watchdog over the visited queue, then moves to the next
// owned one.
func (m *mqManager) watch() {
	i, now := m.i, m.t.Now()
	if m.wd > 0 {
		rt, sk := m.rt, m.h.sinks[i]
		q := m.h.group.Queue(i)
		rxc, txs := q.Counters()
		hs := &m.health[i]
		switch {
		case rxc != hs.rxc || txs != hs.txs || q.InFlight() == 0:
			hs.rxc, hs.txs, hs.last = rxc, txs, now
			if sk.bq != nil && sk.bq.failed {
				sk.bq.failed = false
				rt.stats.Failbacks++
				rt.plat.Tracer.Emit(now, trace.Failover, uint64(i), 1)
			}
		case now.Sub(hs.last) >= m.wd:
			if sk.bq != nil && sk.svc != nil && !sk.bq.failed {
				sk.bq.failed = true
				rt.stats.Failovers++
				rt.plat.Tracer.Emit(now, trace.Failover, uint64(i), 0)
			}
			// A frozen replication ingest ring is a dead peer: waive its
			// acks and release every response blocked only on it.
			if sk.rp != nil {
				sk.rp.r.killPeer(now, sk.rp)
			}
		}
	}
	m.visit(i + m.stride)
}

// idle ends a pass: sweep again at once if it drained anything, otherwise
// wait for header activity. The real manager spins at MQPollInterval; the
// simulator blocks on the activity gate and re-adds the polling detection
// delay. While any owned queue holds in-flight work the wait is bounded by
// the watchdog timeout, so a fully stalled accelerator (which never fires
// the gate) still gets inspected.
func (m *mqManager) idle() {
	if m.drained {
		m.sweep()
		return
	}
	stuck := false
	if m.wd > 0 {
		for i := m.w; i < m.h.group.Len(); i += m.stride {
			if m.h.group.Queue(i).InFlight() > 0 {
				stuck = true
				break
			}
		}
	}
	if stuck {
		if inline, _ := m.gate.WaitTimeoutT(m.t, m.v, m.wd, m.woke); inline {
			m.pollK()
		}
	} else if m.gate.WaitT(m.t, m.v, m.pollK) {
		m.pollK()
	}
}
