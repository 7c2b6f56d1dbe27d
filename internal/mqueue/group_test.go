package mqueue

import (
	"fmt"
	"testing"
	"time"

	"lynx/internal/sim"
)

// A full group round trip: n echo threadblocks, batched SNIC polling.
func TestGroupEndToEnd(t *testing.T) {
	r := newRig(t, false, 1<<20)
	cfg := Config{Kind: ServerQueue, Slots: 8, SlotSize: 96}
	const nq, perQ = 6, 10
	g, err := NewGroup(r.region, 0, cfg, nq, r.qp)
	if err != nil {
		t.Fatal(err)
	}
	accQs, err := AttachGroup(r.region, 0, cfg, nq, gpuProfile(r.params))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != nq {
		t.Fatalf("group len %d", g.Len())
	}
	for i, aq := range accQs {
		i, aq := i, aq
		r.s.Spawn(fmt.Sprintf("tb%d", i), func(p *sim.Proc) {
			for n := 0; n < perQ; n++ {
				m := aq.Recv(p)
				resp := append([]byte{byte('A' + i)}, m.Payload...)
				if err := aq.Send(p, uint16(m.Slot), resp); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	got := make([][]string, nq)
	r.s.Spawn("snic", func(p *sim.Proc) {
		sent := 0
		total := 0
		for total < nq*perQ {
			// Dispatch round-robin across queues.
			if sent < nq*perQ {
				qi := sent % nq
				if _, err := push(p, g.Queue(qi), []byte(fmt.Sprintf("m%d", sent/nq)), 0); err == nil {
					sent++
				}
			}
			// Batched poll sweep: one header-block read for all queues.
			refreshGroup(p, g)
			for qi := 0; qi < nq; qi++ {
				q := g.Queue(qi)
				var buf [1]TxMsg
				for popTxMany(p, q, 1, buf[:]) == 1 {
					got[qi] = append(got[qi], string(buf[0].Payload))
					total++
				}
				commitTx(p, q)
			}
		}
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	for qi := 0; qi < nq; qi++ {
		if len(got[qi]) != perQ {
			t.Fatalf("queue %d: %d messages, want %d", qi, len(got[qi]), perQ)
		}
		for j, m := range got[qi] {
			want := fmt.Sprintf("%cm%d", 'A'+qi, j)
			if m != want {
				t.Fatalf("queue %d msg %d = %q, want %q", qi, j, m, want)
			}
		}
	}
}

// The point of grouping: polling n idle queues costs one RDMA op, not n.
func TestGroupRefreshIsOneOp(t *testing.T) {
	r := newRig(t, false, 1<<20)
	cfg := Config{Slots: 8, SlotSize: 64}
	g, _ := NewGroup(r.region, 0, cfg, 240, r.qp)
	r.s.Spawn("snic", func(p *sim.Proc) {
		refreshGroup(p, g)
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	if ops := r.eng.Ops(); ops != 1 {
		t.Fatalf("refreshing 240 queues took %d RDMA ops, want 1", ops)
	}
	if g.Refreshes() != 1 {
		t.Fatalf("refreshes = %d", g.Refreshes())
	}
}

// Amortized drain cost: one refresh + per-message slot read + one commit per
// queue.
func TestGroupDrainOpCount(t *testing.T) {
	r := newRig(t, false, 1<<20)
	cfg := Config{Slots: 8, SlotSize: 64}
	const nq = 4
	g, _ := NewGroup(r.region, 0, cfg, nq, r.qp)
	accQs, _ := AttachGroup(r.region, 0, cfg, nq, gpuProfile(r.params))
	r.s.Spawn("gpu", func(p *sim.Proc) {
		for _, aq := range accQs {
			aq.Send(p, 0, []byte("out"))
		}
	})
	var before, after uint64
	r.s.Spawn("snic", func(p *sim.Proc) {
		p.Sleep(100 * time.Microsecond) // let the accelerator produce
		before = r.eng.Ops()
		refreshGroup(p, g)
		for i := 0; i < nq; i++ {
			q := g.Queue(i)
			var buf [1]TxMsg
			for popTxMany(p, q, 1, buf[:]) == 1 {
				// Only the RDMA op count matters here.
			}
			commitTx(p, q)
		}
		after = r.eng.Ops()
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	// 1 refresh + nq slot reads + nq commits.
	if got := after - before; got != 1+2*nq {
		t.Fatalf("drain of %d messages took %d ops, want %d", nq, got, 1+2*nq)
	}
}

// TX backpressure: with a full TX ring the accelerator's Send blocks until
// the SNIC commits consumption.
func TestGroupTxBackpressure(t *testing.T) {
	r := newRig(t, false, 1<<20)
	cfg := Config{Slots: 2, SlotSize: 64}
	g, _ := NewGroup(r.region, 0, cfg, 1, r.qp)
	accQs, _ := AttachGroup(r.region, 0, cfg, 1, gpuProfile(r.params))
	aq := accQs[0]
	var thirdSendAt, drainAt sim.Time
	r.s.Spawn("gpu", func(p *sim.Proc) {
		aq.Send(p, 0, []byte("a"))
		aq.Send(p, 0, []byte("b"))
		aq.Send(p, 0, []byte("c")) // blocks until SNIC drains
		thirdSendAt = p.Now()
	})
	r.s.Spawn("snic", func(p *sim.Proc) {
		p.Sleep(500 * time.Microsecond)
		drainAt = p.Now()
		q := g.Queue(0)
		refresh(p, q)
		var buf [1]TxMsg
		for popTxMany(p, q, 1, buf[:]) == 1 {
			// Drain everything so the accelerator's Send can proceed.
		}
		commitTx(p, q)
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	if thirdSendAt < drainAt {
		t.Fatalf("third Send completed at %v before SNIC drain at %v", thirdSendAt, drainAt)
	}
}
