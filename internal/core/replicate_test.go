package core_test

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"lynx/internal/apps/kvstore"
	"lynx/internal/check"
	"lynx/internal/cluster"
	"lynx/internal/core"
	"lynx/internal/fault"
	"lynx/internal/model"
	"lynx/internal/mqueue"
	"lynx/internal/netstack"
	"lynx/internal/sim"
	"lynx/internal/workload"
)

// An RF=3 rack under the tuned batching configuration, node 1's accelerator
// frozen mid-run: node 0's writes are replicated with their responses parked
// for quorum, the replicator declares the frozen peer dead, and every write
// is still acknowledged by the surviving quorum, with invariants armed.
func TestReplicatedRackPeerKill(t *testing.T) {
	const killAt = 2 * time.Millisecond
	ck := check.New()
	p := model.Default()
	p.Batch = model.DefaultBatchConfig()
	rack, err := cluster.Build(cluster.Config{
		Nodes: 3, Replicas: 3, Seed: 31, Params: &p, Check: ck,
		Faults: fault.Config{Stalls: []fault.Stall{{Accel: "gpu1", Queue: -1, At: killAt, For: time.Hour}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := rack.OwnedKeys(0)
	const clients, perClient = 4, 30
	done, stored := 0, 0
	for c := 0; c < clients; c++ {
		c := c
		sock := rack.Clients[c%len(rack.Clients)].MustUDPBind(uint16(43000 + c))
		rack.TB.Sim.Spawn("writer", func(p *sim.Proc) {
			for i := 0; i < perClient; i++ {
				req := kvstore.EncodeSet(keys[(c*perClient+i)%len(keys)], 0, []byte("replicated"))
				payload := make([]byte, workload.SeqBytes+len(req))
				binary.LittleEndian.PutUint64(payload, uint64(c)<<32|uint64(i+1))
				copy(payload[workload.SeqBytes:], req)
				for attempt := 0; attempt < 4; attempt++ {
					sock.SendTo(rack.Node(0).Addr(), payload)
					if dg, ok, _ := sock.RecvTimeout(p, 4*time.Millisecond); ok &&
						strings.Contains(string(dg.Payload[workload.SeqBytes:]), "STORED") {
						stored++
						break
					}
				}
				p.Sleep(300 * time.Microsecond)
			}
			done++
		})
	}
	rack.TB.Sim.RunUntilCond(rack.TB.Sim.Now().Add(time.Second), time.Millisecond,
		func() bool { return done == clients })
	if done != clients || stored != clients*perClient {
		t.Fatalf("%d/%d writers finished, %d/%d writes stored", done, clients, stored, clients*perClient)
	}

	repl := rack.Node(0).Repl
	slot, ok := rack.PeerSlot(0, 1)
	if !ok || repl.PeerCount() != 2 {
		t.Fatalf("node 1 peer slot %v, %d peers", ok, repl.PeerCount())
	}
	if !repl.PeerDead(slot) || repl.PeerDead(1-slot) {
		t.Fatalf("peer kill verdicts %v/%v, want only %s dead", repl.PeerDead(0), repl.PeerDead(1), repl.PeerName(slot))
	}
	if at, dead := repl.PeerDeadAt(slot); !dead || time.Duration(at) <= killAt {
		t.Fatalf("peer dead at %v, want after the %v kill", at, killAt)
	}
	if lag := repl.ReplicationLag(slot, killAt); lag <= 0 || lag > 50*time.Millisecond {
		t.Fatalf("failover latency %v outside (0, 50ms]", lag)
	}
	if repl.ReplicationLag(1-slot, killAt) != 0 {
		t.Fatal("a live peer reports a failover latency")
	}
	st := repl.Stats()
	if st.Writes == 0 || st.Records == 0 || st.Held == 0 || st.Released == 0 || st.PeerFailovers != 1 {
		t.Fatalf("replication stats %s", st)
	}
	if !strings.Contains(st.String(), "peer_failovers=1") {
		t.Fatalf("ReplStats.String() = %q", st)
	}
	live := repl.PeerStat(1 - slot)
	if live.Acks == 0 || live.Name != repl.PeerName(1-slot) || live.AckLatency.Count() != live.Acks {
		t.Fatalf("surviving peer profile %+v", live)
	}
	if repl.HeldResponses() != 0 {
		t.Fatalf("%d responses still parked after every write was acknowledged", repl.HeldResponses())
	}
	rack.Close()
	if rep := ck.Snapshot(); !rep.OK() {
		t.Fatalf("%s", rep)
	}
}

func TestReplicationValidation(t *testing.T) {
	b := newBed(t, 32)
	rt := core.NewRuntime(b.bf.Platform(7))
	cfg := mqueue.Config{Kind: mqueue.ServerQueue, Slots: 8, SlotSize: 64}
	h, _ := rt.Register(b.gpu, cfg, 1)
	svc, err := rt.AddService(core.UDP, 7000, nil, 1, h)
	if err != nil {
		t.Fatal(err)
	}
	classify := func([]byte) (uint64, uint32, bool) { return 0, 0, false }
	if _, err := rt.AddReplication(nil, core.ReplConfig{Classify: classify}); err == nil {
		t.Fatal("replicating a nil service must fail")
	}
	if _, err := rt.AddReplication(svc, core.ReplConfig{}); err == nil {
		t.Fatal("replication without a Classify function must fail")
	}
	r, err := rt.AddReplication(svc, core.ReplConfig{Classify: classify})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddReplication(svc, core.ReplConfig{Classify: classify}); err == nil {
		t.Fatal("replicating a service twice must fail")
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddPeer("late", b.gpu, cfg); err == nil {
		t.Fatal("AddPeer after Start must fail")
	}
	if _, err := rt.AddReplication(svc, core.ReplConfig{Classify: classify}); err == nil {
		t.Fatal("AddReplication after Start must fail")
	}
	b.tb.Sim.Shutdown()
	if ack := core.ReplicaAck([]byte("0123456789")); string(ack) != "01234567" {
		t.Fatalf("ReplicaAck = %q, want the 8-byte id header", ack)
	}
}

// The counter snapshots and drop causes format with stable names.
func TestStatsStrings(t *testing.T) {
	st := core.Stats{Received: 5, Responded: 3, DroppedOverflow: 1, DroppedStalled: 1}
	want := "received=5 responded=3 forwarded=0 dropped=2(overflow=1 stalled=1 backend=0) retries=0 failovers=0 failbacks=0"
	if st.String() != want {
		t.Fatalf("Stats.String() = %q, want %q", st, want)
	}
	for c, name := range map[core.DropCause]string{
		core.DropOverflow: "overflow", core.DropStalled: "stalled", core.DropBackend: "backend", core.DropCause(99): "unknown",
	} {
		if c.String() != name {
			t.Errorf("DropCause(%d).String() = %q, want %q", int(c), c, name)
		}
	}
	pick := core.PolicyFunc(func(_ netstack.Addr, n int) int { return n - 1 })
	if got := pick.Pick(netstack.Addr{}, 4); got != 3 {
		t.Fatalf("PolicyFunc.Pick = %d, want 3", got)
	}
}
