// The runtime's processes and the stages they run. Every process Start
// spawns — the UDP receive workers, the TCP accept and per-connection receive
// loops, the client-mqueue pumps and retry timers, the replication pump, the
// Remote MQ Manager sweeps — and the monitor run on the run-to-completion
// Task substrate: each wake executes inline in the scheduler loop, with no
// goroutine switch. The stages here are therefore written in
// continuation-passing style, and each has exactly one form.
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

// execT charges one unit of frontend CPU work, splitting it into the
// serialized stack section (the shared VMA ring + dispatcher state) and the
// parallel remainder (see model.StackSerialFraction). k runs once both shares
// have been held, with the time the work queued for a core or the serial
// section beyond the charged cost — the dispatcher-inbox wait the
// attribution profile books against PhaseSNIC.
func (rt *Runtime) execT(t *sim.Task, cost time.Duration, k func(qw time.Duration)) {
	scaled := rt.plat.Machine.Scale(cost)
	ser := time.Duration(float64(scaled) * rt.plat.Params.StackSerialFraction)
	rt.cpuBusy += scaled
	rt.serialBusy += ser
	rt.execCalls++
	f := rt.getExecFrame()
	f.t, f.t0, f.par, f.total, f.k = t, t.Now(), scaled-ser, scaled, k
	rt.serial.WithT(t, ser, f.afterSerial)
}

// execBatchT charges the frontend CPU work of n equal-cost messages processed
// in one pass, and k runs with the queueing wait. The serialized section is
// entered once for the whole run: its per-message fixed portion
// (model.SerialBatchFixed — the ring doorbell read, dispatcher lock handoff)
// is paid once, the remainder scales with n; the parallel share is n full
// units, since per-message payload work does not amortize. The caller
// apportions the wait across the run's spans with shareWait, so attribution
// stays telescoping-exact. With n == 1 it is execT, charge for charge.
func (rt *Runtime) execBatchT(t *sim.Task, cost time.Duration, n int, k func(qw time.Duration)) {
	if n <= 1 {
		rt.execT(t, cost, k)
		return
	}
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

// dispatchT delivers one client message to the server mqueue pick selects.
func (s *Service) dispatchT(t *sim.Task, payload []byte, to replyTo, from netstack.Addr, k func()) {
	rt := s.rt
	rt.plat.Tracer.Emit(t.Now(), trace.Recv, uint64(len(payload)), uint64(s.port))
	rt.execT(t, rt.plat.Params.DispatchCost, func(qw time.Duration) {
		qi := s.pick(from, 0)
		bq := s.stages[0][qi]
		id := trace.SpanID(payload)
		rt.plat.Spans.AddWait(id, trace.PhaseSNIC, qw)
		rt.plat.Spans.Stamp(id, trace.StageDispatch, t.Now())
		rt.plat.Spans.SetQueue(id, qi)
		bq.q.PushT(t, payload, 0, func(slot int, err error) {
			if err != nil {
				s.shed(t.Now(), bq, qi, id)
				k()
				return
			}
			// Fallback for queues without their own span table
			// (first-write-wins: a queue armed with cfg.Spans already
			// stamped at write-delivery time).
			rt.plat.Spans.Stamp(id, trace.StagePushed, t.Now())
			bq.pending[slot] = append(bq.pending[slot], to)
			rt.stats.Received++
			rt.plat.Tracer.Emit(t.Now(), trace.Dispatch, uint64(qi), uint64(slot))
			if s.repl != nil {
				s.repl.onDispatch(payload)
			}
			k()
		})
	})
}

// dispatchBatchT delivers a run of ready datagrams as one dispatcher
// scheduling quantum (Params.Batch.Quantum > 1): the serialized section is
// entered once for the whole run, every message's slot is reserved and its
// reply bookkeeping recorded before any RDMA is posted, and the
// message-bearing writes are posted in doorbell groups with a checkpointed
// completion wait — ceil(k/doorbell) issue charges and ceil(k/cqDrain)
// wakeups for a k-message quantum.
//
// Bookkeeping must precede posting: with only checkpoint completions
// awaited, an early message of the batch lands — and its response can race
// back through the MQ manager — before the posting context regains control.
// Reserving the pending-reply FIFO entry at preparation time keeps that
// response from being misread as an orphan. StagePushed is stamped by the
// write's delivery hook exactly as in the per-message path. The preparation
// loop is sequential: a refresh inside PrepareWriteT parks the task and the
// loop resumes in its continuation.
func (s *Service) dispatchBatchT(t *sim.Task, dgs []netstack.Datagram, k func()) {
	rt := s.rt
	n := len(dgs)
	if n == 0 {
		k()
		return
	}
	for i := range dgs {
		rt.plat.Tracer.Emit(t.Now(), trace.Recv, uint64(len(dgs[i].Payload)), uint64(s.port))
	}
	rt.execBatchT(t, rt.plat.Params.DispatchCost, n, func(qw time.Duration) {
		type preparedWR struct {
			wr rdma.WR
			qp *rdma.QP
		}
		preps := make([]preparedWR, 0, n)
		var prep func(i int)
		post := func() {
			batch := rt.plat.Params.Batch
			wrs := make([]rdma.WR, 0, len(preps))
			var postNext func()
			postNext = func() {
				if len(preps) == 0 {
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
				qp.PostAndWaitT(t, wrs, batch.EffDoorbell(), batch.EffCQDrain(), func(rdma.CQE) {
					postNext()
				})
			}
			postNext()
		}
		finish := func(i, qi int, bq *boundQueue, wr rdma.WR, slot int, err error) {
			if err != nil {
				s.shed(t.Now(), bq, qi, trace.SpanID(dgs[i].Payload))
				return
			}
			bq.pending[slot] = append(bq.pending[slot], replyTo{udpFrom: dgs[i].From})
			rt.stats.Received++
			rt.plat.Tracer.Emit(t.Now(), trace.Dispatch, uint64(qi), uint64(slot))
			if s.repl != nil {
				s.repl.onDispatch(dgs[i].Payload)
			}
			preps = append(preps, preparedWR{wr: wr, qp: bq.q.QP()})
		}
		prep = func(i int) {
			for ; i < n; i++ {
				payload := dgs[i].Payload
				qi := s.pick(dgs[i].From, 0)
				bq := s.stages[0][qi]
				id := trace.SpanID(payload)
				rt.plat.Spans.AddWait(id, trace.PhaseSNIC, shareWait(qw, n, i))
				rt.plat.Spans.Stamp(id, trace.StageDispatch, t.Now())
				rt.plat.Spans.SetQueue(id, qi)
				i, qi, bq := i, qi, bq
				wr, slot, err, inline := bq.q.PrepareWriteT(t, payload, 0, func(wr rdma.WR, slot int, err error) {
					finish(i, qi, bq, wr, slot, err)
					prep(i + 1)
				})
				if !inline {
					return
				}
				finish(i, qi, bq, wr, slot, err)
			}
			post()
		}
		prep(0)
	})
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
	rt.execBatchT(t, rt.plat.Params.ForwardCost, n, func(qw time.Duration) {
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
		rt.execBatchT(t, s.sendCost(), m, func(qw2 time.Duration) {
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
		rt.execT(t, rt.plat.Params.DispatchCost, func(time.Duration) {
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
// message is charged the TCP stack cost and dispatched. It ends when the
// connection closes or resets.
func (s *Service) recvTCPT(t *sim.Task, conn *netstack.TCPConn) {
	rt := s.rt
	var msg []byte
	var loop func()
	dispatch := func(qw time.Duration) {
		rt.plat.Spans.AddWait(trace.SpanID(msg), trace.PhaseSNIC, qw)
		s.dispatchT(t, msg, replyTo{conn: conn}, conn.RemoteAddr(), loop)
	}
	got := func(m []byte, enq sim.Time, err error) {
		if err != nil {
			return
		}
		msg = m
		id := trace.SpanID(m)
		now := t.Now()
		rt.plat.Spans.Stamp(id, trace.StageSnicRecv, now)
		if enq > 0 {
			rt.plat.Spans.AddWait(id, trace.PhaseNetwork, now.Sub(enq))
		}
		rt.execT(t, rt.tcpCost(), dispatch)
	}
	loop = func() { conn.RecvQueuedT(t, got) }
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
