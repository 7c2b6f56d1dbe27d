package rdma

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"lynx/internal/fabric"
	"lynx/internal/fault"
	"lynx/internal/memdev"
	"lynx/internal/model"
	"lynx/internal/sim"
)

type rig struct {
	s      *sim.Sim
	params model.Params
	fab    *fabric.Fabric
	nic    *fabric.Device
	gpu    *fabric.Device
	eng    *Engine
}

func newRig(relaxed bool) *rig {
	s := sim.New(sim.Config{Seed: 3})
	p := model.Default()
	f := fabric.New(s)
	cfg := memdev.Config{}
	if relaxed {
		cfg = memdev.Config{Relaxed: true, MaxSkew: 10 * time.Microsecond}
	}
	gpuMem := memdev.NewMemory(s, "gpu0", 1<<22, true, cfg)
	nic := f.AddDevice("nic", nil)
	gpu := f.AddDevice("gpu0", gpuMem)
	f.Connect(nic, gpu, p.PCIeLatency, p.PCIeBandwidth)
	return &rig{s: s, params: p, fab: f, nic: nic, gpu: gpu, eng: NewEngine(s, &p, f, nic)}
}

func TestWriteRead(t *testing.T) {
	r := newRig(false)
	region := r.gpu.Mem.MustAlloc("ring", 4096)
	qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	r.s.SpawnTask("snic", func(tk *sim.Task) {
		qp.WriteT(tk, region, 64, []byte("lynx"), func(CQE) {
			qp.ReadT(tk, region, 64, 4, func(got []byte) {
				if string(got) != "lynx" {
					t.Errorf("read back %q", got)
				}
			})
		})
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	posted, completed := qp.Stats()
	if posted != 2 || completed != 2 {
		t.Fatalf("posted=%d completed=%d", posted, completed)
	}
}

func TestQPRequiresBARCapableTarget(t *testing.T) {
	s := sim.New(sim.Config{})
	p := model.Default()
	f := fabric.New(s)
	noBar := memdev.NewMemory(s, "acc", 1<<20, false, memdev.Config{})
	nic := f.AddDevice("nic", nil)
	acc := f.AddDevice("acc", noBar)
	f.Connect(nic, acc, p.PCIeLatency, p.PCIeBandwidth)
	eng := NewEngine(s, &p, f, nic)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: §4.4 requires BAR-exposable memory")
		}
	}()
	eng.CreateQP(acc, QPConfig{Kind: RC})
}

func TestWriteLatencyNearRDMAIssuePlusPCIe(t *testing.T) {
	r := newRig(false)
	region := r.gpu.Mem.MustAlloc("ring", 4096)
	qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	var lat time.Duration
	r.s.SpawnTask("snic", func(tk *sim.Task) {
		start := tk.Now()
		qp.WriteT(tk, region, 0, make([]byte, 64), func(CQE) { lat = tk.Now().Sub(start) })
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	// Issue (<1µs) + engine + PCIe: should be ~2-3 µs, far below the
	// 7.5 µs cudaMemcpyAsync setup — the Fig. 5 result.
	if lat < time.Microsecond || lat > 4*time.Microsecond {
		t.Fatalf("RDMA write latency %v, want ~2-3µs", lat)
	}
	if lat >= r.params.CudaMemcpyAsyncSetup {
		t.Fatalf("RDMA (%v) must beat cudaMemcpyAsync setup (%v)", lat, r.params.CudaMemcpyAsyncSetup)
	}
}

func TestRemoteQPPenalty(t *testing.T) {
	r := newRig(false)
	region := r.gpu.Mem.MustAlloc("ring", 4096)
	local := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	remote := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC, Remote: true})
	if local.Remote() || !remote.Remote() {
		t.Fatal("Remote flags wrong")
	}
	var localLat, remoteLat time.Duration
	r.s.SpawnTask("snic", func(tk *sim.Task) {
		start := tk.Now()
		local.WriteT(tk, region, 0, make([]byte, 64), func(CQE) {
			localLat = tk.Now().Sub(start)
			start = tk.Now()
			remote.WriteT(tk, region, 0, make([]byte, 64), func(CQE) { remoteLat = tk.Now().Sub(start) })
		})
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	gap := remoteLat - localLat
	// One extra network hop per posted write (~1.5 µs); the full §6.3 8 µs
	// shows up end-to-end across the ~5 remote operations per message.
	if gap < time.Microsecond || gap > 2500*time.Nanosecond {
		t.Fatalf("remote write penalty %v, want ~1.5µs", gap)
	}
}

func TestUCCreditsAndDrops(t *testing.T) {
	r := newRig(false)
	region := r.gpu.Mem.MustAlloc("ring", 4096)
	qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: UC})
	qp.AddCredits(2)
	var results []bool
	r.s.SpawnTask("snic", func(tk *sim.Task) {
		var write func(i int)
		write = func(i int) {
			if i == 4 {
				return
			}
			qp.WriteT(tk, region, i*8, []byte{byte(i + 1)}, func(cqe CQE) {
				results = append(results, cqe.Dropped)
				write(i + 1)
			})
		}
		write(0)
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	want := []bool{false, false, true, true}
	if len(results) != len(want) {
		t.Fatalf("drop pattern %v, want %v", results, want)
	}
	for i := range want {
		if results[i] != want[i] {
			t.Fatalf("drop pattern %v, want %v", results, want)
		}
	}
	if qp.Dropped() != 2 || qp.Credits() != 0 {
		t.Fatalf("dropped=%d credits=%d", qp.Dropped(), qp.Credits())
	}
	// After a refill (the NICA helper thread), writes land again.
	qp.AddCredits(1)
	r2 := region.ReadLocal(0, 1)
	if r2[0] != 1 {
		t.Fatalf("first write payload lost: %v", r2)
	}
}

func TestRCCreditPanics(t *testing.T) {
	r := newRig(false)
	r.gpu.Mem.MustAlloc("ring", 64)
	qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic adding credits to RC QP")
		}
	}()
	qp.AddCredits(1)
}

func TestBarrierFlushesRelaxedWrites(t *testing.T) {
	r := newRig(true)
	region := r.gpu.Mem.MustAlloc("ring", 4096)
	qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	var barLat time.Duration
	r.s.SpawnTask("snic", func(tk *sim.Task) {
		qp.WriteT(tk, region, 0, []byte("payload!"), func(CQE) {
			start := tk.Now()
			qp.BarrierT(tk, region, func() {
				barLat = tk.Now().Sub(start)
				if got := region.ReadLocal(0, 8); string(got) != "payload!" {
					t.Errorf("payload invisible after barrier: %q", got)
				}
			})
		})
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	// The barrier stalls its issuing context for most of the §5.1 5 µs
	// per-message workaround cost (the remainder is the extra doorbell
	// write, accounted at the mqueue layer).
	if barLat < 3500*time.Nanosecond || barLat > 5500*time.Nanosecond {
		t.Fatalf("barrier latency %v, want ~4.4µs", barLat)
	}
}

// Property: completions arrive in posting order with matching IDs and a
// completion for every post (RC reliability), for any op mix.
func TestRCOrderedCompletionProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		if len(ops) == 0 {
			return true
		}
		if len(ops) > 64 {
			ops = ops[:64]
		}
		r := newRig(false)
		region := r.gpu.Mem.MustAlloc("ring", 65536)
		qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
		// Every WR signals into one shared channel, so the channel's order
		// is the QP's completion order.
		cq := sim.NewChan[CQE](r.s, 0)
		okCh := make(chan bool, 1)
		r.s.SpawnTask("snic", func(tk *sim.Task) {
			var post func(i int)
			var collect func(i int, good bool)
			post = func(i int) {
				if i == len(ops) {
					collect(0, true)
					return
				}
				wr := WR{Op: OpRead, Region: region, Offset: i * 8, Len: 1, ID: uint64(i), reply: cq}
				if ops[i] {
					wr = WR{Op: OpWrite, Region: region, Offset: i * 8, Data: []byte{byte(i)}, ID: uint64(i), reply: cq}
				}
				qp.PostT(tk, wr, func() { post(i + 1) })
			}
			collect = func(i int, good bool) {
				for ; i < len(ops); i++ {
					i := i
					cqe, ok := cq.GetT(tk, func(c CQE) { collect(i+1, good && c.ID == uint64(i)) })
					if !ok {
						return
					}
					good = good && cqe.ID == uint64(i)
				}
				okCh <- good
			}
			post(0)
		})
		r.s.RunUntil(sim.Time(time.Second))
		r.s.Shutdown()
		select {
		case ok := <-okCh:
			return ok
		default:
			return false
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEnginePipelineSharedAcrossQPs(t *testing.T) {
	r := newRig(false)
	regionA := r.gpu.Mem.MustAlloc("a", 4096)
	regionB := r.gpu.Mem.MustAlloc("b", 4096)
	qpA := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	qpB := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	var aDone, bDone sim.Time
	r.s.SpawnTask("a", func(tk *sim.Task) {
		qpA.WriteT(tk, regionA, 0, make([]byte, 4096), func(CQE) { aDone = tk.Now() })
	})
	r.s.SpawnTask("b", func(tk *sim.Task) {
		qpB.WriteT(tk, regionB, 0, make([]byte, 4096), func(CQE) { bDone = tk.Now() })
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	if aDone == 0 || bDone == 0 {
		t.Fatal("writes did not finish")
	}
	if aDone == bDone {
		t.Fatal("engine pipeline should serialize concurrent WRs from different QPs")
	}
	if r.eng.Ops() != 2 {
		t.Fatalf("engine ops = %d", r.eng.Ops())
	}
}

func TestReadBackMatchesWrite(t *testing.T) {
	r := newRig(false)
	region := r.gpu.Mem.MustAlloc("ring", 1<<16)
	qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	payload := make([]byte, 1400)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	done := false
	r.s.SpawnTask("snic", func(tk *sim.Task) {
		qp.WriteT(tk, region, 512, payload, func(CQE) {
			qp.ReadT(tk, region, 512, len(payload), func(got []byte) {
				done = true
				if !bytes.Equal(got, payload) {
					t.Error("payload mismatch after RDMA round trip")
				}
			})
		})
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	if !done {
		t.Fatal("read never completed")
	}
}

// PostManyT: a burst posted under one doorbell costs one issue charge and
// completes in posting order.
func TestPostManyTOrdering(t *testing.T) {
	r := newRig(false)
	region := r.gpu.Mem.MustAlloc("ring", 4096)
	qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	const n = 12
	cq := sim.NewChan[CQE](r.s, 0)
	r.s.SpawnTask("snic", func(tk *sim.Task) {
		wrs := make([]WR, n)
		for i := range wrs {
			wrs[i] = WR{Op: OpWrite, Region: region, Offset: i * 8, Data: []byte{byte(i)}, ID: uint64(100 + i), reply: cq}
		}
		issueStart := tk.Now()
		qp.PostManyT(tk, wrs, func() {
			if issue := tk.Now().Sub(issueStart); issue > r.params.RDMAIssue {
				t.Errorf("PostManyT charged %v for %d WRs, want one issue cost (%v)", issue, n, r.params.RDMAIssue)
			}
			tk.Sleep(time.Millisecond, func() { // let every completion land
				for i := 0; i < n; i++ {
					cqe, ok := cq.TryGet()
					if !ok {
						t.Fatalf("only %d of %d completions surfaced", i, n)
					}
					if cqe.ID != uint64(100+i) {
						t.Fatalf("completion %d has ID %d, want %d (posting order)", i, cqe.ID, 100+i)
					}
				}
				if left := cq.Len(); left != 0 {
					t.Errorf("%d completions left after draining all %d", left, n)
				}
			})
		})
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	if posted, completed := qp.Stats(); posted != n || completed != n {
		t.Fatalf("posted=%d completed=%d, want %d each", posted, completed, n)
	}
}

// PostAndWaitT suppresses signaling on non-checkpoint WQEs: a batch of n
// writes surfaces only its checkpoint completions to the poster, and its
// reply channel returns to the QP's pool drained — no CQE of an unsignaled
// WQE lingers in it.
func TestPostAndWaitUnsignaledNoCQLeak(t *testing.T) {
	r := newRig(false)
	region := r.gpu.Mem.MustAlloc("ring", 4096)
	qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
	const n = 10
	finished := false
	r.s.SpawnTask("snic", func(tk *sim.Task) {
		wrs := make([]WR, n)
		for i := range wrs {
			wrs[i] = WR{Op: OpWrite, Region: region, Offset: i * 8, Data: []byte{byte(i)}, ID: uint64(i)}
		}
		qp.PostAndWaitT(tk, wrs, 3, 4, func(last CQE) {
			finished = true
			if last.ID != n-1 {
				t.Errorf("PostAndWaitT returned CQE ID %d, want %d (the batch's last WR)", last.ID, n-1)
			}
			// All data must be visible once the final checkpoint completes.
			for i := 0; i < n; i++ {
				if got := region.ReadLocal(i*8, 1); got[0] != byte(i) {
					t.Errorf("slot %d holds %d after checkpoint completion", i, got[0])
				}
			}
			signaled := 0
			for _, wr := range wrs {
				if wr.reply != nil {
					signaled++
				}
			}
			if signaled != 3 {
				t.Errorf("%d of %d WQEs signaled, want ceil(10/4) = 3", signaled, n)
			}
		})
	})
	r.s.RunUntil(sim.Time(time.Second))
	r.s.Shutdown()
	if !finished {
		t.Fatal("PostAndWaitT never ran its continuation")
	}
	if posted, completed := qp.Stats(); posted != n || completed != n {
		t.Fatalf("posted=%d completed=%d, want %d each", posted, completed, n)
	}
	if len(qp.replyFree) != 1 || qp.replyFree[0].Len() != 0 {
		t.Fatalf("reply pool after the batch: %d channels, want 1 drained", len(qp.replyFree))
	}
}

// Under transport retries completions are delivered in posting order while
// READ snapshots land in wire order: a retried READ completes after a later
// READ that was not retried, and CQE.At says so even though its completion
// is delivered first.
func TestReadCQETAtIsWireOrderUnderRetries(t *testing.T) {
	seen := false
	for seed := uint64(1); seed <= 64 && !seen; seed++ {
		r := newRig(false)
		r.eng.SetFaults(fault.NewPlan(fault.Config{Seed: seed, RDMAErrRate: 0.5}))
		region := r.gpu.Mem.MustAlloc("hdr", 64)
		qp := r.eng.CreateQP(r.gpu, QPConfig{Kind: RC})
		var got []CQE
		var deliveredAt []sim.Time
		for _, name := range []string{"first", "second"} {
			r.s.SpawnTask(name, func(tk *sim.Task) {
				qp.ReadCQET(tk, region, 0, 8, func(c CQE) {
					got = append(got, c)
					deliveredAt = append(deliveredAt, tk.Now())
				})
			})
		}
		r.s.RunUntil(sim.Time(time.Second))
		r.s.Shutdown()
		if len(got) != 2 {
			t.Fatalf("seed %d: %d completions, want 2", seed, len(got))
		}
		if deliveredAt[0] > deliveredAt[1] {
			t.Fatalf("seed %d: completions delivered out of posting order", seed)
		}
		if got[0].Retried && !got[1].Retried {
			seen = true
			if got[0].At <= got[1].At {
				t.Errorf("seed %d: retried READ snapshot at %v, not after the later READ's %v", seed, got[0].At, got[1].At)
			}
		}
	}
	if !seen {
		t.Fatal("no seed retried the first READ but not the second")
	}
}
