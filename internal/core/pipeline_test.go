package core_test

import (
	"fmt"
	"testing"
	"time"

	"lynx/internal/accel"
	"lynx/internal/check"
	"lynx/internal/core"
	"lynx/internal/fault"
	"lynx/internal/metrics"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/sim"
	"lynx/internal/workload"
)

// startStageTBs launches persistent threadblocks for one pipeline stage:
// each appends its tag to the payload.
func startStageTBs(t *testing.T, b *bed, gpu *accel.GPU, h *core.AccelHandle, first, count int, tag byte, work time.Duration) {
	t.Helper()
	qs := h.AccelQueues()
	if err := gpu.LaunchPersistent(b.tb.Sim, count, func(tb *accel.TB) {
		aq := qs[first+tb.Index()%count]
		for {
			m := aq.Recv(tb.Proc())
			if work > 0 {
				tb.Compute(work)
			}
			out := append(append([]byte{}, m.Payload...), tag)
			if aq.Send(tb.Proc(), uint16(m.Slot), out) != nil {
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// A two-stage pipeline across two GPUs: requests traverse both accelerators
// and return transformed, with no application code on the SNIC.
func TestPipelineTwoGPUs(t *testing.T) {
	b := newBed(t, 21)
	gpu2 := b.server.AddGPU("gpu1", accel.K40m, false, "server1")
	rt := core.NewRuntime(b.bf.Platform(7))
	cfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}
	h1, err := rt.Register(b.gpu, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := rt.Register(gpu2, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := rt.AddPipeline(core.UDP, 7000, nil, 2, h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Stages() != 2 {
		t.Fatalf("stages = %d", pl.Stages())
	}
	startStageTBs(t, b, b.gpu, h1, 0, 2, 'A', 10*time.Microsecond)
	startStageTBs(t, b, gpu2, h2, 0, 2, 'B', 10*time.Microsecond)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}

	const n = 60
	got := 0
	hist := metrics.NewHistogram()
	cli := b.client.MustUDPBind(9000)
	b.tb.Sim.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			start := p.Now()
			cli.SendTo(pl.Addr(), []byte(fmt.Sprintf("r%02d", i)))
			dg := cli.Recv(p)
			hist.Record(p.Now().Sub(start))
			want := fmt.Sprintf("r%02dAB", i)
			if string(dg.Payload) != want {
				t.Errorf("reply %d = %q, want %q", i, dg.Payload, want)
			}
			got++
		}
	})
	b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return got == n })
	b.tb.Sim.Shutdown()
	if got != n {
		t.Fatalf("completed %d/%d pipeline round trips", got, n)
	}
	if pl.Relayed() != n {
		t.Fatalf("relayed = %d, want %d (one relay per request)", pl.Relayed(), n)
	}
	st := rt.Stats()
	if st.Received != n || st.Responded != n || st.Dropped() != 0 {
		t.Fatalf("stats rcv=%d resp=%d drop=%d", st.Received, st.Responded, st.Dropped())
	}
}

// Stage-to-stage relays skip the network stack, so a pipeline hop must be
// much cheaper than going back out to a client and in again.
func TestPipelineHopCheaperThanNetworkBounce(t *testing.T) {
	// Pipelined: client -> stage0 -> stage1 -> client.
	pipelined := func() time.Duration {
		b := newBed(t, 22)
		rt := core.NewRuntime(b.bf.Platform(7))
		cfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}
		h, _ := rt.Register(b.gpu, cfg, 2)
		pl, err := rt.AddPipeline(core.UDP, 7000, nil, 1, h, h)
		if err != nil {
			t.Fatal(err)
		}
		qs := h.AccelQueues()
		b.gpu.LaunchPersistent(b.tb.Sim, 2, func(tb *accel.TB) {
			aq := qs[tb.Index()]
			for {
				m := aq.Recv(tb.Proc())
				if aq.Send(tb.Proc(), uint16(m.Slot), m.Payload) != nil {
					return
				}
			}
		})
		rt.Start()
		return measureRTT(b, pl.Addr(), 40)
	}()
	// Bounced: client calls stage0's service, then stage1's service.
	bounced := func() time.Duration {
		b := newBed(t, 23)
		rt := core.NewRuntime(b.bf.Platform(7))
		cfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}
		h, _ := rt.Register(b.gpu, cfg, 2)
		rt.AddService(core.UDP, 7000, nil, 1, h)
		rt.AddService(core.UDP, 7001, nil, 1, h)
		qs := h.AccelQueues()
		b.gpu.LaunchPersistent(b.tb.Sim, 2, func(tb *accel.TB) {
			aq := qs[tb.Index()]
			for {
				m := aq.Recv(tb.Proc())
				if aq.Send(tb.Proc(), uint16(m.Slot), m.Payload) != nil {
					return
				}
			}
		})
		rt.Start()
		hist := metrics.NewHistogram()
		done := false
		cli := b.client.MustUDPBind(9000)
		b.tb.Sim.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				start := p.Now()
				cli.SendTo(netstack.Addr{Host: "bf1", Port: 7000}, make([]byte, 32))
				dg := cli.Recv(p)
				cli.SendTo(netstack.Addr{Host: "bf1", Port: 7001}, dg.Payload)
				cli.Recv(p)
				hist.Record(p.Now().Sub(start))
			}
			done = true
		})
		b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return done })
		b.tb.Sim.Shutdown()
		return hist.Median()
	}()
	if pipelined >= bounced {
		t.Fatalf("pipeline hop (%v) should beat a client bounce (%v)", pipelined, bounced)
	}
}

func measureRTT(b *bed, target netstack.Addr, n int) time.Duration {
	hist := metrics.NewHistogram()
	done := false
	cli := b.client.MustUDPBind(9000)
	b.tb.Sim.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			start := p.Now()
			cli.SendTo(target, make([]byte, 32))
			cli.Recv(p)
			hist.Record(p.Now().Sub(start))
		}
		done = true
	})
	b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return done })
	b.tb.Sim.Shutdown()
	return hist.Median()
}

func TestPipelineValidation(t *testing.T) {
	b := newBed(t, 24)
	rt := core.NewRuntime(b.bf.Platform(7))
	cfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 8, SlotSize: 64}
	h, _ := rt.Register(b.gpu, cfg, 4)
	if _, err := rt.AddPipeline(core.UDP, 7000, nil, 1, h); err == nil {
		t.Fatal("single-stage pipeline must be rejected")
	}
	if _, err := rt.AddPipeline(core.UDP, 7000, nil, 3, h, h); err == nil {
		t.Fatal("over-claiming queues must fail")
	}
	if _, err := rt.AddPipeline(core.UDP, 7000, nil, 0, h, h); err == nil {
		t.Fatal("a pipeline with no mqueues must be rejected")
	}
	if _, err := rt.AddPipeline(core.UDP, 7000, nil, 2, h, h); err != nil {
		t.Fatal(err)
	}
	rt.Start()
	if _, err := rt.AddPipeline(core.UDP, 7002, nil, 1, h, h); err == nil {
		t.Fatal("AddPipeline after Start must fail")
	}
	b.tb.Sim.Shutdown()
}

// countingStage launches one threadblock per queue of a pipeline stage that
// echoes each message and counts it in hits[queue].
func countingStage(t *testing.T, b *bed, gpu *accel.GPU, h *core.AccelHandle, hits []int) {
	t.Helper()
	qs := h.AccelQueues()
	if err := gpu.LaunchPersistent(b.tb.Sim, len(hits), func(tb *accel.TB) {
		i := tb.Index()
		for {
			m := qs[i].Recv(tb.Proc())
			hits[i]++
			if qs[i].Send(tb.Proc(), uint16(m.Slot), m.Payload) != nil {
				return
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// A StickyHash pipeline steers each request by its origin at every stage: a
// relay picks the next stage's queue by the client that sent the request, so
// each client stays on the same queue index all the way through.
func TestPipelineStickyHashRelaysByOrigin(t *testing.T) {
	b := newBed(t, 25)
	gpu2 := b.server.AddGPU("gpu1", accel.K40m, false, "server1")
	client2 := b.tb.AddClient("client2")
	rt := core.NewRuntime(b.bf.Platform(7))
	cfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}
	h1, _ := rt.Register(b.gpu, cfg, 2)
	h2, _ := rt.Register(gpu2, cfg, 2)
	pl, err := rt.AddPipeline(core.UDP, 7000, core.StickyHash{}, 2, h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	hits0, hits1 := make([]int, 2), make([]int, 2)
	countingStage(t, b, b.gpu, h1, hits0)
	countingStage(t, b, gpu2, h2, hits1)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	const perClient = 50
	done := 0
	for c, host := range []*netstack.Host{b.client, b.client, client2, client2} {
		sock := host.MustUDPBind(uint16(9000 + c))
		b.tb.Sim.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < perClient; i++ {
				sock.SendTo(pl.Addr(), make([]byte, 32))
				sock.Recv(p)
			}
			done++
		})
	}
	b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return done == 4 })
	b.tb.Sim.Shutdown()
	if done != 4 {
		t.Fatalf("%d/4 clients finished", done)
	}
	if hits0[0] == 0 || hits0[1] == 0 {
		t.Fatalf("stage 0 per-queue counts %v: StickyHash must spread 4 clients over both queues", hits0)
	}
	if hits0[0] != hits1[0] || hits0[1] != hits1[1] {
		t.Fatalf("per-queue counts stage 0 %v, stage 1 %v: relays must follow the request's origin", hits0, hits1)
	}
}

// A stalled queue in a later stage fails over like a service queue: the
// MQ-manager watchdog marks it failed and relays steer around it, so the
// stage's ring never overflows.
func TestPipelineStageFailover(t *testing.T) {
	b := newFaultBed(t, 26, fault.Config{
		Stalls: []fault.Stall{{Accel: "gpu1", Queue: 0, At: 5 * time.Millisecond, For: time.Second}},
	})
	gpu2 := b.server.AddGPU("gpu1", accel.K40m, false, "server1")
	rt := core.NewRuntime(b.bf.Platform(7))
	cfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}
	h1, _ := rt.Register(b.gpu, cfg, 2)
	h2, _ := rt.Register(gpu2, cfg, 2)
	pl, err := rt.AddPipeline(core.UDP, 7000, nil, 2, h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	startStageTBs(t, b, b.gpu, h1, 0, 2, 'A', 10*time.Microsecond)
	startStageTBs(t, b, gpu2, h2, 0, 2, 'B', 10*time.Microsecond)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	cfgW := workloadCfg(pl.Addr(), 4, 60*time.Millisecond)
	cfgW.Warmup, cfgW.Timeout, cfgW.Retries = time.Millisecond, 2*time.Millisecond, 3
	res := workloadRun(b, workloadNew(b, cfgW))
	st := rt.Stats()
	if b.tb.Faults.Stats().StallHits == 0 {
		t.Fatal("the stall window never hit the stage-1 accelerator")
	}
	if st.Failovers < 1 {
		t.Fatalf("watchdog never failed the stalled stage-1 queue over: %s", st)
	}
	if st.DroppedOverflow != 0 {
		t.Fatalf("stage-1 ring overflowed %d times after failover: %s (workload: %s)", st.DroppedOverflow, st, res)
	}
}

// Under the tuned batching configuration a pipeline takes the batched
// service paths (batched UDP dispatch, batched final-stage forwarding; TCP
// keeps its per-connection receive loop) and relays by origin over both
// transports, with request conservation and ring invariants armed.
func TestPipelineBatchedInvariants(t *testing.T) {
	for _, proto := range []core.Proto{core.UDP, core.TCP} {
		t.Run(proto.String(), func(t *testing.T) {
			b := newBed(t, 27)
			ck := check.New()
			b.tb.EnableInvariants(ck)
			b.tb.Params.Batch = model.DefaultBatchConfig()
			gpu2 := b.server.AddGPU("gpu1", accel.K40m, false, "server1")
			rt := core.NewRuntime(b.bf.Platform(7))
			cfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}
			h1, _ := rt.Register(b.gpu, cfg, 2)
			h2, _ := rt.Register(gpu2, cfg, 2)
			pl, err := rt.AddPipeline(proto, 7000, core.StickyHash{}, 2, h1, h2)
			if err != nil {
				t.Fatal(err)
			}
			startStageTBs(t, b, b.gpu, h1, 0, 2, 'A', 2*time.Microsecond)
			startStageTBs(t, b, gpu2, h2, 0, 2, 'B', 2*time.Microsecond)
			if err := rt.Start(); err != nil {
				t.Fatal(err)
			}
			const clients, perClient = 8, 40
			done, bad := 0, 0
			for c := 0; c < clients; c++ {
				c := c
				b.tb.Sim.Spawn("client", func(p *sim.Proc) {
					var call func(req []byte) []byte
					if proto == core.TCP {
						conn, err := b.client.TCPDial(p, pl.Addr())
						if err != nil {
							t.Error(err)
							return
						}
						call = func(req []byte) []byte {
							conn.Send(req)
							msg, _ := conn.Recv(p)
							return msg
						}
					} else {
						sock := b.client.MustUDPBind(uint16(9000 + c))
						call = func(req []byte) []byte {
							sock.SendTo(pl.Addr(), req)
							return sock.Recv(p).Payload
						}
					}
					for i := 0; i < perClient; i++ {
						req := fmt.Sprintf("c%d-%02d", c, i)
						if string(call([]byte(req))) != req+"AB" {
							bad++
						}
					}
					done++
				})
			}
			b.tb.Sim.RunUntilCond(sim.Time(time.Second), time.Millisecond, func() bool { return done == clients })
			b.tb.Sim.Shutdown()
			if done != clients || bad != 0 {
				t.Fatalf("%d/%d clients finished, %d wrong replies", done, clients, bad)
			}
			const n = clients * perClient
			st := rt.Stats()
			if st.Received != n || st.Responded != n || pl.Relayed() != n {
				t.Fatalf("received %d responded %d relayed %d, want %d each", st.Received, st.Responded, pl.Relayed(), n)
			}
			if rep := ck.Snapshot(); !rep.OK() {
				t.Fatalf("%s", rep)
			}
		})
	}
}

// test helpers shared by policy tests.
func workloadCfg(target netstack.Addr, clients int, window time.Duration) workload.Config {
	return workload.Config{
		Proto: workload.UDP, Target: target, Payload: 64,
		Clients: clients, Duration: window, Warmup: window / 5,
	}
}

func workloadNew(b *bed, cfg workload.Config) *workload.Generator {
	return workload.New(b.tb.Sim, cfg, b.client)
}

func workloadRun(b *bed, g *workload.Generator) workload.Result {
	return workload.RunFor(b.tb.Sim, g)
}
