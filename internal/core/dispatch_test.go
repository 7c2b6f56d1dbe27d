package core_test

import (
	"fmt"
	"testing"
	"time"

	"lynx/internal/accel"
	"lynx/internal/check"
	"lynx/internal/core"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/sim"
	"lynx/internal/trace"
)

// The dispatcher posts prepared coalesced writes only, so a service must
// refuse queues configured for the barrier or no-coalesce ablations instead
// of shedding every message they would receive.
func TestServiceRejectsAblationQueues(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  mqueue.Config
	}{
		{"barrier", mqueue.Config{Kind: mqueue.ServerQueue, Slots: 8, SlotSize: 64, Barrier: true}},
		{"no-coalesce", mqueue.Config{Kind: mqueue.ServerQueue, Slots: 8, SlotSize: 64, NoCoalesce: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := newBed(t, 41)
			gpu2 := b.server.AddGPU("gpu1", accel.K40m, false, "server1")
			rt := core.NewRuntime(b.bf.Platform(7))
			good, err := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 8, SlotSize: 64}, 2)
			if err != nil {
				t.Fatal(err)
			}
			bad, err := rt.Register(gpu2, tc.cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rt.AddService(core.UDP, 7000, nil, 1, bad); err == nil {
				t.Fatal("AddService accepted ablation queues")
			}
			if _, err := rt.AddPipeline(core.TCP, 7001, nil, 1, good, bad); err == nil {
				t.Fatal("AddPipeline accepted an ablation stage")
			}
			// Nothing was claimed: both handles still serve their full
			// queue count, and the ablation queues stay usable as client
			// mqueues (their pump writes through PushT).
			if _, err := rt.AddService(core.UDP, 7002, nil, 2, good); err != nil {
				t.Fatalf("rejected services leaked claims: %v", err)
			}
			for i := 0; i < 2; i++ {
				if _, err := rt.AddClientQueue(bad, core.UDP, netstack.Addr{Host: "client1", Port: uint16(5000 + i)}); err != nil {
					t.Fatalf("client queue %d on ablation handle: %v", i, err)
				}
			}
			b.tb.Sim.Shutdown()
		})
	}
}

// conservationBed runs one request through an unbatched (unit) service with
// invariants armed and returns the runtime, its checker and a flag the echo
// threadblock sets once the request reached the accelerator.
func conservationBed(t *testing.T, proto core.Proto, tr *trace.Tracer) (*bed, *core.Runtime, *check.Checker, *bool) {
	t.Helper()
	b := newBed(t, 43)
	ck := check.New()
	b.tb.EnableInvariants(ck)
	plat := b.bf.Platform(7)
	plat.Tracer = tr
	rt := core.NewRuntime(plat)
	h, err := rt.Register(b.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 8, SlotSize: 128}, 2)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := rt.AddService(proto, 7000, nil, 2, h)
	if err != nil {
		t.Fatal(err)
	}
	reached := new(bool)
	qs := h.AccelQueues()
	if err := b.gpu.LaunchPersistent(b.tb.Sim, len(qs), func(tb *accel.TB) {
		aq := qs[tb.Index()]
		for {
			m := aq.Recv(tb.Proc())
			*reached = true
			if err := aq.Send(tb.Proc(), uint16(m.Slot), m.Payload); err != nil {
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	b.tb.Sim.Spawn("client", func(p *sim.Proc) {
		if proto == core.TCP {
			conn, err := b.client.TCPDial(p, svc.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			conn.Send([]byte("one"))
			conn.Recv(p)
			return
		}
		cli := b.client.MustUDPBind(9000)
		cli.SendTo(svc.Addr(), []byte("one"))
		cli.Recv(p)
	})
	return b, rt, ck, reached
}

// The dispatcher records a request (reply FIFO entry, Received) when it
// reserves the slot, before the RDMA write carrying the message completes. A
// shutdown anywhere inside that write must still balance: the request is in
// flight, not lost. Each instant is a fresh, identical run stopped between
// the Dispatch event (slot reserved) and the end of the write's issue and
// engine stages, before its wire transfer can land.
func TestDispatchConservationInsideWrite(t *testing.T) {
	for _, proto := range []core.Proto{core.UDP, core.TCP} {
		t.Run(proto.String(), func(t *testing.T) {
			tr := trace.New(64)
			b, _, _, _ := conservationBed(t, proto, tr)
			b.tb.Sim.RunUntil(sim.Time(time.Millisecond))
			b.tb.Sim.Shutdown()
			var tD sim.Time
			for _, ev := range tr.Events() {
				if ev.Kind == trace.Dispatch {
					tD = ev.At
					break
				}
			}
			if tD == 0 {
				t.Fatal("probe run dispatched nothing")
			}
			issue, engine := b.params.RDMAIssue, b.params.RDMAEngine
			for _, off := range []time.Duration{0, issue / 2, issue, issue + engine/2, issue + engine} {
				b, rt, ck, reached := conservationBed(t, proto, nil)
				b.tb.Sim.RunUntil(tD.Add(off))
				st := rt.Stats()
				if st.Received != 1 || st.Responded != 0 || *reached {
					t.Fatalf("at dispatch+%v: received %d responded %d reached %v, want a write in flight",
						off, st.Received, st.Responded, *reached)
				}
				b.tb.Sim.Shutdown()
				rep := ck.Snapshot()
				if rep.Finishers == 0 || !rep.OK() {
					t.Fatalf("at dispatch+%v: %s", off, rep)
				}
			}
		})
	}
}

// BenchmarkCoreDispatch drives closed-loop UDP echo clients through one
// BlueField runtime serving 16 mqueues of a zero-work GPU kernel, unbatched
// (quantum=1) and with the dispatcher quantum, doorbell and drain budget at 8
// (quantum=8). One op is one answered request: the receive worker, the
// dispatcher, the RDMA writes, the MQ manager and the forwarder, plus the
// clients and the accelerator side it takes to keep them busy. It reports
// allocations per request and simulator events per wall-clock second.
func BenchmarkCoreDispatch(b *testing.B) {
	for _, q := range []int{1, 8} {
		b.Run(fmt.Sprintf("quantum=%d", q), func(b *testing.B) {
			bd := newBed(b, 1)
			if q > 1 {
				bd.tb.Params.Batch = model.BatchConfig{Doorbell: q, CQDrain: q, Quantum: q}
			}
			rt := core.NewRuntime(bd.bf.Platform(7))
			const queues, clients = 16, 64
			h, err := rt.Register(bd.gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}, queues)
			if err != nil {
				b.Fatal(err)
			}
			svc, err := rt.AddService(core.UDP, 7000, nil, queues, h)
			if err != nil {
				b.Fatal(err)
			}
			startEchoTBs(b, bd, h, 0)
			if err := rt.Start(); err != nil {
				b.Fatal(err)
			}
			s := bd.tb.Sim
			served := 0
			payload := make([]byte, 64)
			for c := 0; c < clients; c++ {
				sock := bd.client.MustUDPBind(uint16(9000 + c))
				s.SpawnTask("client", func(t *sim.Task) {
					var send func()
					got := func(netstack.Datagram) {
						served++
						send()
					}
					send = func() {
						sock.SendTo(svc.Addr(), payload)
						if dg, ok := sock.RecvT(t, got); ok {
							got(dg)
						}
					}
					send()
				})
			}
			s.RunUntil(s.Now().Add(time.Millisecond)) // warm up
			b.ReportAllocs()
			b.ResetTimer()
			ev0, served0 := s.Executed(), served
			for served-served0 < b.N {
				s.RunUntil(s.Now().Add(time.Microsecond))
			}
			b.StopTimer()
			if b.Elapsed() > 0 {
				b.ReportMetric(float64(s.Executed()-ev0)/b.Elapsed().Seconds(), "events/sec")
			}
			s.Shutdown()
			if st := rt.Stats(); st.Dropped() != 0 {
				b.Fatalf("dropped %d requests", st.Dropped())
			}
		})
	}
}
