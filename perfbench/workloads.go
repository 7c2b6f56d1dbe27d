package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"time"

	"lynx/internal/accel"
	"lynx/internal/apps/kvstore"
	"lynx/internal/apps/lenet"
	"lynx/internal/cluster"
	"lynx/internal/core"
	"lynx/internal/fabric"
	"lynx/internal/fault"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/rdma"
	"lynx/internal/sim"
	"lynx/internal/snic"
	"lynx/internal/trace"
)

// bfWorkers is the number of BlueField ARM cores Lynx runs on (7 of 8, as in
// the paper and in every rack node).
const bfWorkers = 7

// simSeed seeds every testbed. The benchmark seed shapes only the generated
// requests (bytes, start offsets, arrival times), never the simulator.
const simSeed = 1

// workloadDef is one benchmark workload: a deployment, its traffic, and the
// fixed simulated window every repetition runs.
type workloadDef struct {
	name   string
	why    string
	warmup time.Duration
	window time.Duration
	drain  time.Duration // longest wait for stragglers after the window
	build  func(seed uint64, tr *tracer) (*deployment, error)
}

// deployment is one built workload, started and ready for traffic.
type deployment struct {
	sim   *sim.Sim
	svc   service
	start func(l *load) // starts the clients
	parts parts
}

var workloads = []*workloadDef{
	{
		name:   "echo-bf240",
		why:    "Fig. 6 saturated cell: 240 mqueues on a BlueField, 480 closed-loop 64 B UDP clients; host cost is the transport and sim stack",
		warmup: 30 * time.Millisecond,
		window: 100 * time.Millisecond,
		drain:  50 * time.Millisecond,
		build:  buildEcho,
	},
	{
		name:   "lenet-k80",
		why:    "Fig. 8 LeNet serving on four local K80 halves, closed-loop; host cost is the real CNN, transport layers are light",
		warmup: 20 * time.Millisecond,
		window: 200 * time.Millisecond,
		drain:  50 * time.Millisecond,
		build:  buildLeNet,
	},
	{
		name:   "kv-rack3",
		why:    "3-node RF=3 KV rack, open-loop Poisson 60/40 get/set at 150K/s (below the knee), batched, telemetry on; the only replication and telemetry path",
		warmup: 5 * time.Millisecond,
		window: 150 * time.Millisecond,
		drain:  20 * time.Millisecond,
		build:  buildKV,
	},
}

func findWorkload(name string) (*workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// mix64 is splitmix64's finalizer: a well-spread hash of (seed, seq) that
// draws request contents independently of the order requests are made in.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// echoCompute is the simulated per-request kernel time of the echo server.
const echoCompute = 20 * time.Microsecond

// echoThink and lenetThink are the mean client think times. They are short
// against the saturated round trip (about 1.4 ms and 0.9 ms), so the server
// stays saturated, but they make request timing depend on the seed.
const (
	echoThink  = 10 * time.Microsecond
	lenetThink = 100 * time.Microsecond
)

// buildEcho stands up the Fig. 6 echo server: Lynx on a BlueField, one K40m
// with 240 server mqueues, a persistent threadblock per mqueue echoing each
// request after 20 µs of simulated compute.
func buildEcho(seed uint64, tr *tracer) (*deployment, error) {
	const nMQ = 240
	t := tr.begin()
	p := model.Default()
	tb := snic.NewTestbedWith(simSeed, &p, fault.Config{})
	server := tb.NewMachine("server1", 6)
	bf := server.AttachBlueField("bf1")
	gpu := server.AddGPU("gpu0", accel.K40m, false, "server1")
	clients := []*netstack.Host{tb.AddClient("client1"), tb.AddClient("client2")}
	rt := core.NewRuntime(bf.Platform(bfWorkers))
	tr.end("setup.build", "setup", t)

	t = tr.begin()
	h, err := rt.Register(gpu, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: 128}, nMQ)
	if err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	svc, err := rt.AddService(core.UDP, 7000, nil, nMQ, h)
	if err != nil {
		return nil, fmt.Errorf("add service: %w", err)
	}
	tr.end("setup.register", "setup", t)

	d := &deployment{sim: tb.Sim}
	d.parts = parts{
		tb: tb, runtimes: []*core.Runtime{rt}, gpus: []*accel.GPU{gpu},
		hosts: append([]*netstack.Host{bf.NetHost}, clients...), engines: []*rdma.Engine{bf.RDMA},
		nics: []*fabric.Device{bf.NIC}, tbs: nMQ,
	}
	t = tr.begin()
	qs := h.AccelQueues()
	if err := gpu.LaunchPersistent(tb.Sim, nMQ, func(t *accel.TB) {
		aq, p := qs[t.Index()], t.Proc()
		for {
			t0 := p.Now()
			m := aq.Recv(p)
			d.parts.recvWait += p.Now().Sub(t0)
			t.Compute(echoCompute)
			if aq.Send(p, uint16(m.Slot), m.Payload) != nil {
				return
			}
		}
	}); err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	tr.end("setup.launch", "setup", t)

	t = tr.begin()
	if err := rt.Start(); err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	tr.end("setup.start", "setup", t)

	target := svc.Addr()
	d.svc = service{
		newRequest: func(seq uint64) *request {
			body := make([]byte, 64)
			for i := seqBytes; i < len(body); i += 8 {
				v := mix64(seed ^ mix64(seq) ^ uint64(i))
				for j := 0; j < 8 && i+j < len(body); j++ {
					body[i+j] = byte(v >> (8 * j))
				}
			}
			return &request{to: target, body: body}
		},
		check: func(req *request, reply []byte) bool { return bytes.Equal(reply, req.body) },
	}
	d.start = func(l *load) { l.closedLoop(tb.Sim, clients, 2*nMQ, echoThink, 500*time.Millisecond) }
	return d, nil
}

// lenetImages is the fig8 image set: every digit at every (dx, dy) shift in
// [-2, 2]², 250 images.
const lenetImages = 10 * 5 * 5

// lenetRef holds the images and the class the reference forward pass gives
// each, computed once per process outside every timed section.
type lenetRef struct {
	images  [lenetImages][]byte
	classes [lenetImages]byte
}

var lenetRefs *lenetRef

// lenetReference builds (once) the image set and its reference classes,
// the argmax of lenet.(*Network).InferReference on each image.
func lenetReference() (*lenetRef, error) {
	if lenetRefs != nil {
		return lenetRefs, nil
	}
	ref := &lenetRef{}
	net := lenet.New(lenetWeightsSeed)
	for i := range ref.images {
		img := lenet.RenderDigit(i/25, i/5%5-2, i%5-2)
		scores, err := net.InferReference(img)
		if err != nil {
			return nil, fmt.Errorf("reference inference: %w", err)
		}
		best := 0
		for c, v := range scores {
			if v > scores[best] {
				best = c
			}
		}
		ref.images[i], ref.classes[i] = img, byte(best)
	}
	lenetRefs = ref
	return ref, nil
}

// lenetWeightsSeed is the weight seed every fig8 experiment serves with.
const lenetWeightsSeed = 42

// buildLeNet stands up the Fig. 8 LeNet server: Lynx on a BlueField and four
// local K80 halves, one mqueue each in one round-robin service. Each
// threadblock classifies with the real network, then charges the calibrated
// K80 service time through a dynamic-parallelism child kernel.
func buildLeNet(seed uint64, tr *tracer) (*deployment, error) {
	const nGPU = 4
	ref, err := lenetReference()
	if err != nil {
		return nil, err
	}
	t := tr.begin()
	p := model.Default()
	tb := snic.NewTestbedWith(simSeed, &p, fault.Config{})
	server := tb.NewMachine("server1", 6)
	bf := server.AttachBlueField("bf1")
	var gpus []*accel.GPU
	for i := 0; i < nGPU; i++ {
		gpus = append(gpus, server.AddGPU(fmt.Sprintf("gpu-l%d", i), accel.K80Half, false, "server1"))
	}
	clients := []*netstack.Host{tb.AddClient("client1"), tb.AddClient("client2")}
	rt := core.NewRuntime(bf.Platform(bfWorkers))
	tr.end("setup.build", "setup", t)

	t = tr.begin()
	net := lenet.New(lenetWeightsSeed)
	tr.end("setup.app_init", "setup", t)

	t = tr.begin()
	payload := seqBytes + lenet.InputBytes
	var handles []*core.AccelHandle
	for _, g := range gpus {
		h, err := rt.Register(g, mqueue.Config{Kind: mqueue.ServerQueue, Slots: 16, SlotSize: payload + 16}, 1)
		if err != nil {
			return nil, fmt.Errorf("register: %w", err)
		}
		handles = append(handles, h)
	}
	svc, err := rt.AddService(core.UDP, 7000, nil, 1, handles...)
	if err != nil {
		return nil, fmt.Errorf("add service: %w", err)
	}
	tr.end("setup.register", "setup", t)

	d := &deployment{sim: tb.Sim}
	d.parts = parts{
		tb: tb, runtimes: []*core.Runtime{rt}, gpus: gpus,
		hosts: append([]*netstack.Host{bf.NetHost}, clients...), engines: []*rdma.Engine{bf.RDMA},
		nics: []*fabric.Device{bf.NIC}, tbs: nGPU, lenetSeen: make(map[uint64]struct{}),
	}
	t = tr.begin()
	for gi, g := range gpus {
		aq := handles[gi].AccelQueues()[0]
		if err := g.LaunchPersistent(tb.Sim, 1, func(t *accel.TB) {
			p := t.Proc()
			for {
				t0 := p.Now()
				m := aq.Recv(p)
				d.parts.recvWait += p.Now().Sub(t0)
				resp := make([]byte, seqBytes+1)
				copy(resp, m.Payload[:seqBytes])
				if len(m.Payload) >= payload {
					img := m.Payload[seqBytes:payload]
					h := fnv.New64a()
					h.Write(img)
					d.parts.lenetSeen[h.Sum64()] = struct{}{}
					d.parts.lenetCalls++
					c0 := tr.begin()
					cls, err := net.Classify(img)
					tr.end("lenet.classify", "sim.run", c0)
					if err == nil {
						resp[seqBytes] = byte(cls)
					}
				}
				t.SpawnChild(tb.Params.LeNetServiceK80)
				if aq.Send(p, uint16(m.Slot), resp) != nil {
					return
				}
			}
		}); err != nil {
			return nil, fmt.Errorf("launch: %w", err)
		}
	}
	tr.end("setup.launch", "setup", t)

	t = tr.begin()
	if err := rt.Start(); err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	tr.end("setup.start", "setup", t)

	target := svc.Addr()
	d.svc = service{
		newRequest: func(seq uint64) *request {
			idx := int(mix64(seed^mix64(seq)) % lenetImages)
			body := make([]byte, payload)
			copy(body[seqBytes:], ref.images[idx])
			return &request{to: target, body: body, key: idx}
		},
		check: func(req *request, reply []byte) bool {
			return len(reply) == seqBytes+1 && reply[seqBytes] == ref.classes[req.key]
		},
	}
	// Three closed-loop clients per GPU saturate the service (as in Fig. 8b).
	d.start = func(l *load) { l.closedLoop(tb.Sim, clients, 3*nGPU, lenetThink, 500*time.Millisecond) }
	return d, nil
}

// kvRate is the kv-rack3 offered load in requests per second: about 45% of
// the rack's knee, where the p99 of this mix passes 1 ms (near 330K/s; see
// README.md), so queues stay short and the tail is steady across seeds.
const kvRate = 150_000

// kvGetPercent is the share of gets in the kv-rack3 mix. An even mix would
// put the median exactly between the get and the (replicated, slower) set
// latency modes, where it jumps between them from seed to seed.
const kvGetPercent = 60

// kvPreload is the value the rack preloads under every key.
const kvPreload = "value-0123456789"

// buildKV stands up a 3-node RF=3 KV rack with the tuned batching
// configuration and the per-node telemetry plane armed. Traffic is gets and
// sets over the preloaded keys, each sent to its key's primary.
func buildKV(seed uint64, tr *tracer) (*deployment, error) {
	t := tr.begin()
	p := model.Default()
	p.Batch = model.DefaultBatchConfig()
	rack, err := cluster.Build(cluster.Config{
		Nodes: 3, Replicas: 3, Seed: simSeed, Params: &p, Telemetry: &cluster.Telemetry{},
	})
	if err != nil {
		return nil, fmt.Errorf("build rack: %w", err)
	}
	keys := make([]string, rack.Keys())
	primary := make([]*cluster.Node, len(keys))
	for k := range keys {
		keys[k] = fmt.Sprintf("key-%03d", k)
		primary[k] = rack.Node(rack.PrimaryFor(keys[k]))
	}
	tr.end("setup.build", "setup", t)

	d := &deployment{sim: rack.TB.Sim}
	pt := parts{tb: rack.TB}
	for i := 0; i < rack.Nodes(); i++ {
		n := rack.Node(i)
		pt.runtimes = append(pt.runtimes, n.RT)
		pt.gpus = append(pt.gpus, n.GPU)
		pt.hosts = append(pt.hosts, n.BF.NetHost)
		pt.engines = append(pt.engines, n.BF.RDMA)
		pt.nics = append(pt.nics, n.BF.NIC)
		pt.repls = append(pt.repls, n.Repl)
		pt.spans = append(pt.spans, n.Spans)
	}
	pt.hosts = append(pt.hosts, rack.Clients...)
	d.parts = pt

	// written[k] holds every value the preload or a sent set wrote to key k.
	written := make([]map[string]struct{}, len(keys))
	for k := range written {
		written[k] = map[string]struct{}{kvPreload: {}}
	}
	d.svc = service{
		newRequest: func(seq uint64) *request {
			h := mix64(seed ^ mix64(seq))
			k := int(h % uint64(len(keys)))
			req := &request{to: primary[k].Addr(), key: k, kind: kindGet}
			var msg []byte
			if h>>32%100 < kvGetPercent {
				msg = kvstore.EncodeGet(keys[k])
			} else {
				req.kind = kindSet
				val := fmt.Sprintf("v%015x", mix64(h)>>4)
				written[k][val] = struct{}{}
				msg = kvstore.EncodeSet(keys[k], 0, []byte(val))
			}
			req.body = append(make([]byte, seqBytes, seqBytes+len(msg)), msg...)
			return req
		},
		check: func(req *request, reply []byte) bool {
			body := reply[seqBytes:]
			if req.kind == kindSet {
				return string(body) == "STORED\r\n"
			}
			v, ok, err := kvstore.DecodeValue(body)
			if err != nil || !ok {
				return false
			}
			_, known := written[req.key][string(v)]
			return known
		},
		spans: func(req *request) *trace.SpanTable { return primary[req.key].Spans },
	}
	d.start = func(l *load) { l.openLoop(rack.TB.Sim, rack.Clients, 8, kvRate) }
	return d, nil
}

// parts lists a deployment's components, for reading every layer's public
// counters, plus the counters the benchmark's own kernel bodies keep.
type parts struct {
	tb       *snic.Testbed
	runtimes []*core.Runtime
	gpus     []*accel.GPU
	hosts    []*netstack.Host
	engines  []*rdma.Engine
	nics     []*fabric.Device
	repls    []*core.Replicator
	spans    []*trace.SpanTable

	tbs        int           // threadblocks running the benchmark's kernels
	recvWait   time.Duration // their simulated time blocked in AccelQueue.Recv
	lenetCalls uint64
	lenetSeen  map[uint64]struct{} // distinct images classified
}

// layerCounts is a snapshot of simulated counters. Every field is
// deterministic per seed, so two runs of one seed must agree on all of them.
type layerCounts struct {
	Elapsed        time.Duration
	Events         uint64
	Received       uint64
	Responded      uint64
	Dropped        uint64
	Overflow       uint64
	CoreRetries    uint64
	ExecCalls      uint64
	CPUBusy        time.Duration
	Cores          int
	RDMAOps        uint64
	RDMARetried    uint64
	RxDropped      uint64
	Transfers      uint64
	PCIeBusy       time.Duration // busiest link on any SNIC-to-accelerator path
	GPUBusy        time.Duration
	Resident       int // persistent threadblocks resident on the GPUs
	RecvWait       time.Duration
	TBs            int
	LenetCalls     uint64
	LenetDistinct  uint64
	ReplWrites     uint64
	ReplRecords    uint64
	ReplBacklogged uint64
	ReplHeld       uint64
	PeerAckP99     time.Duration
	SpansBegun     uint64
	SpansEvicted   uint64
}

func (pt *parts) counts() layerCounts {
	c := layerCounts{
		Elapsed: time.Duration(pt.tb.Sim.Now()), Events: pt.tb.Sim.Executed(),
		Transfers: pt.tb.Fab.Transfers(), RecvWait: pt.recvWait, TBs: pt.tbs,
		LenetCalls: pt.lenetCalls, LenetDistinct: uint64(len(pt.lenetSeen)),
	}
	for _, rt := range pt.runtimes {
		st := rt.Stats()
		c.Received += st.Received
		c.Responded += st.Responded
		c.Dropped += st.Dropped()
		c.Overflow += st.DroppedOverflow
		c.CoreRetries += st.Retries
		c.ExecCalls += rt.ExecCalls()
		c.CPUBusy += rt.CPUBusy()
		c.Cores += bfWorkers
	}
	for _, e := range pt.engines {
		c.RDMAOps += e.Ops()
		c.RDMARetried += e.Retried()
	}
	for _, h := range pt.hosts {
		c.RxDropped += h.Dropped()
	}
	for _, g := range pt.gpus {
		c.GPUBusy += g.BusyTime()
		c.Resident += g.Resident()
		for _, nic := range pt.nics {
			for _, link := range pt.tb.Fab.PathLinks(nic, g.Device()) {
				c.PCIeBusy = max(c.PCIeBusy, link.BusyTime())
			}
		}
	}
	for _, r := range pt.repls {
		if r == nil {
			continue
		}
		st := r.Stats()
		c.ReplWrites += st.Writes
		c.ReplRecords += st.Records
		c.ReplBacklogged += st.Backlogged
		c.ReplHeld += st.Held
		for i := 0; i < r.PeerCount(); i++ {
			if h := r.PeerStat(i).AckLatency; h != nil {
				c.PeerAckP99 = max(c.PeerAckP99, h.P99())
			}
		}
	}
	for _, sp := range pt.spans {
		c.SpansBegun += sp.Begun()
		c.SpansEvicted += sp.Evicted()
	}
	return c
}
