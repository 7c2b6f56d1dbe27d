package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand/v2"
	"time"

	"lynx/internal/netstack"
	"lynx/internal/sim"
	"lynx/internal/trace"
)

// seqBytes is the request header every workload carries: a little-endian
// sequence number the servers echo back, so replies match requests.
const seqBytes = 8

// basePort is the first client-side UDP port.
const basePort = 20000

// closedRetries bounds same-request retransmits of a timed-out closed-loop
// request before it is counted lost.
const closedRetries = 1

// Request kinds, for the per-kind latency split of the KV workload.
const (
	kindPlain = iota
	kindGet
	kindSet
)

// request is one generated request, kept until its reply is checked.
type request struct {
	seq  uint64
	due  sim.Time // when it was due to be sent; latency counts from here
	to   netstack.Addr
	body []byte // the bytes sent, sequence header included
	kind int
	key  int // workload-specific input index (image, key)
}

// service is what a workload exposes to the load generator: how to make the
// request for a sequence number and how to judge its reply.
type service struct {
	newRequest func(seq uint64) *request
	check      func(req *request, reply []byte) bool
	// spans, when set, names the span table of the server a request goes
	// to: measured requests open their span there (the sequence number is
	// the span ID the server stamps) and close it on reply, as the client
	// side of the program's request tracing.
	spans func(req *request) *trace.SpanTable
}

// load drives a service from client sockets and checks every reply. Its
// counters cover the whole run (warm-up included); latencies are kept for
// requests due inside the measurement window.
type load struct {
	svc     service
	rng     *rand.Rand
	start   sim.Time // window start (end of warm-up)
	end     sim.Time // window end; no request is issued after it
	corrupt func([]byte)

	seq         uint64
	issued      uint64
	bad         uint64 // wrong replies
	lost        uint64 // requests never answered
	retries     uint64 // closed-loop retransmits
	outstanding int
	received    uint64 // correct replies to requests due in the window
	lat         []int64
	getLat      []int64
	setLat      []int64
	inputHash   hash.Hash64 // FNV-1a over every generated request's bytes
	senders     int         // client processes started
	sendersDone int         // client processes past the window end
}

func newLoad(svc service, seed uint64, start, end sim.Time) *load {
	return &load{
		svc: svc, start: start, end: end,
		rng:       rand.New(rand.NewPCG(seed, 0x6c796e78)),
		inputHash: fnv.New64a(),
	}
}

// issue generates the next request, due at the given time.
func (l *load) issue(due sim.Time) *request {
	l.seq++
	req := l.svc.newRequest(l.seq)
	req.seq, req.due = l.seq, due
	binary.LittleEndian.PutUint64(req.body, l.seq)
	l.inputHash.Write(req.body)
	l.issued++
	l.outstanding++
	if due >= l.start && l.svc.spans != nil {
		l.svc.spans(req).Begin(req.seq, due)
	}
	return req
}

// reply judges a reply to req, received at the given time.
func (l *load) reply(req *request, payload []byte, at sim.Time) {
	l.outstanding--
	if l.corrupt != nil {
		payload = append([]byte(nil), payload...)
		l.corrupt(payload)
	}
	if len(payload) < seqBytes || binary.LittleEndian.Uint64(payload) != req.seq || !l.svc.check(req, payload) {
		l.bad++
		return
	}
	if req.due < l.start {
		return
	}
	if l.svc.spans != nil {
		l.svc.spans(req).Close(req.seq, trace.SpanDone, at)
	}
	l.received++
	ns := int64(at.Sub(req.due))
	l.lat = append(l.lat, ns)
	switch req.kind {
	case kindGet:
		l.getLat = append(l.getLat, ns)
	case kindSet:
		l.setLat = append(l.setLat, ns)
	}
}

// closedLoop starts n clients, spread over the hosts, that each send one
// request, wait for its reply, then think for an exponentially distributed
// time of the given mean before sending the next (and before the first). A
// request that times out is retransmitted closedRetries times before it
// counts as lost. Think times are drawn from the seed.
func (l *load) closedLoop(s *sim.Sim, hosts []*netstack.Host, n int, think, timeout time.Duration) {
	l.senders += n
	for c := 0; c < n; c++ {
		sock := hosts[c%len(hosts)].MustUDPBind(basePort + uint16(c))
		s.Spawn(fmt.Sprintf("bench/client%d", c), func(p *sim.Proc) {
			defer func() { l.sendersDone++ }()
			for {
				p.Sleep(time.Duration(l.rng.ExpFloat64() * float64(think)))
				if p.Now() >= l.end {
					break
				}
				req := l.issue(p.Now())
				sock.SendTo(req.to, req.body)
				wait := timeout
				for attempt := 0; ; {
					dg, ok, _ := sock.RecvTimeout(p, wait)
					if ok {
						if len(dg.Payload) >= seqBytes && binary.LittleEndian.Uint64(dg.Payload) < req.seq {
							continue // a late copy answering an earlier request
						}
						l.reply(req, dg.Payload, p.Now())
						break
					}
					if attempt == closedRetries {
						l.outstanding--
						l.lost++
						break
					}
					// Retransmit the same request once, with doubled patience.
					attempt++
					l.retries++
					sock.SendTo(req.to, req.body)
					wait *= 2
				}
			}
		})
	}
}

// openLoop sends a Poisson stream of the given aggregate rate, round-robin
// over nSock sockets spread over the hosts, regardless of replies; one
// receiver per socket matches replies to requests by sequence number.
func (l *load) openLoop(s *sim.Sim, hosts []*netstack.Host, nSock int, rate float64) {
	inflight := make(map[uint64]*request)
	socks := make([]*netstack.UDPSocket, nSock)
	for i := range socks {
		sock := hosts[i%len(hosts)].MustUDPBind(basePort + uint16(i))
		socks[i] = sock
		s.Spawn(fmt.Sprintf("bench/rx%d", i), func(p *sim.Proc) {
			for {
				dg := sock.Recv(p)
				if len(dg.Payload) < seqBytes {
					l.bad++
					continue
				}
				req, ok := inflight[binary.LittleEndian.Uint64(dg.Payload)]
				if !ok {
					l.bad++
					continue
				}
				delete(inflight, req.seq)
				l.reply(req, dg.Payload, p.Now())
			}
		})
	}
	mean := float64(time.Second) / rate
	l.senders++
	s.Spawn("bench/sender", func(p *sim.Proc) {
		defer func() { l.sendersDone++ }()
		due := p.Now()
		for i := 0; ; i++ {
			due = due.Add(time.Duration(l.rng.ExpFloat64() * mean))
			if due >= l.end {
				return
			}
			p.Sleep(due.Sub(p.Now()))
			req := l.issue(due)
			inflight[req.seq] = req
			socks[i%nSock].SendTo(req.to, req.body)
		}
	})
}

// drained reports whether every sender has stopped and every request has
// been answered or given up on.
func (l *load) drained() bool { return l.sendersDone == l.senders && l.outstanding == 0 }

// finish counts every request still unanswered as lost.
func (l *load) finish() {
	l.lost += uint64(l.outstanding)
	l.outstanding = 0
}

// failed is the number of requests not answered correctly.
func (l *load) failed() uint64 {
	f := l.lost + l.bad
	if f > l.issued {
		f = l.issued
	}
	return f
}
