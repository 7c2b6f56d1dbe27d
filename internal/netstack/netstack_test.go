package netstack

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"lynx/internal/model"
	"lynx/internal/sim"
)

func newNet() (*sim.Sim, *Network, model.Params) {
	s := sim.New(sim.Config{Seed: 5})
	p := model.Default()
	return s, New(s, &p), p
}

func TestUDPRoundTrip(t *testing.T) {
	s, n, _ := newNet()
	server := n.AddHost("server")
	client := n.AddHost("client")
	srvSock := server.MustUDPBind(7000)
	cliSock := client.MustUDPBind(9000)

	var rtt time.Duration
	s.Spawn("server", func(p *sim.Proc) {
		for {
			dg := srvSock.Recv(p)
			srvSock.SendTo(dg.From, append([]byte("echo:"), dg.Payload...))
		}
	})
	s.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		cliSock.SendTo(srvSock.Addr(), []byte("ping"))
		dg := cliSock.Recv(p)
		rtt = p.Now().Sub(start)
		if string(dg.Payload) != "echo:ping" {
			t.Errorf("payload %q", dg.Payload)
		}
		if dg.From != srvSock.Addr() {
			t.Errorf("from %v", dg.From)
		}
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
	if rtt <= 0 || rtt > 10*time.Microsecond {
		t.Fatalf("wire RTT %v implausible for 40GbE + cut-through switch", rtt)
	}
}

func TestUDPUnknownDestinationsDropped(t *testing.T) {
	s, n, _ := newNet()
	h := n.AddHost("a")
	sock := h.MustUDPBind(1)
	s.Spawn("x", func(p *sim.Proc) {
		sock.SendTo(Addr{Host: "nowhere", Port: 5}, []byte("x")) // no such host
		sock.SendTo(Addr{Host: "a", Port: 99}, []byte("y"))      // no such port
		p.Sleep(time.Millisecond)
		if _, ok := sock.TryRecv(); ok {
			t.Error("unexpected delivery")
		}
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
}

func TestUDPQueueOverflowDrops(t *testing.T) {
	s, n, _ := newNet()
	a, b := n.AddHost("a"), n.AddHost("b")
	src := a.MustUDPBind(1)
	b.MustUDPBind(2)
	s.Spawn("flood", func(p *sim.Proc) {
		for i := 0; i < DefaultRxQueue+100; i++ {
			src.SendTo(Addr{Host: "b", Port: 2}, []byte{1})
		}
		p.Sleep(100 * time.Millisecond)
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
	if b.Dropped() != 100 {
		t.Fatalf("dropped %d, want 100", b.Dropped())
	}
}

func TestBindConflicts(t *testing.T) {
	_, n, _ := newNet()
	h := n.AddHost("a")
	h.MustUDPBind(5)
	if _, err := h.UDPBind(5); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("err = %v", err)
	}
	h.MustTCPListen(5) // TCP and UDP namespaces are separate
	if _, err := h.TCPListen(5); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("err = %v", err)
	}
}

func TestLinkSerializationContention(t *testing.T) {
	s, n, _ := newNet()
	a, b := n.AddHost("a"), n.AddHost("b")
	src := a.MustUDPBind(1)
	dst := b.MustUDPBind(2)
	const msgs, size = 100, 4096
	var last sim.Time
	s.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			src.SendTo(dst.Addr(), make([]byte, size))
		}
	})
	s.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < msgs; i++ {
			dst.Recv(p)
			last = p.Now()
		}
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
	// 100 x 4138 B at 40 Gb/s ≈ 82.8 µs of pure serialization on the
	// bottleneck link.
	minTime := model.TransferTime(msgs*(size+udpOverhead), 40e9)
	if last < sim.Time(minTime) {
		t.Fatalf("finished at %v, faster than link allows (%v)", last, minTime)
	}
	if last > sim.Time(2*minTime) {
		t.Fatalf("finished at %v, way beyond serialization bound %v", last, minTime)
	}
}

func TestTCPConnectSendRecv(t *testing.T) {
	s, n, _ := newNet()
	server := n.AddHost("server")
	client := n.AddHost("client")
	l := server.MustTCPListen(80)

	s.Spawn("server", func(p *sim.Proc) {
		conn := l.Accept(p)
		for {
			msg, err := conn.Recv(p)
			if err != nil {
				return
			}
			if err := conn.Send(append([]byte("ok:"), msg...)); err != nil {
				return
			}
		}
	})
	var got []byte
	s.Spawn("client", func(p *sim.Proc) {
		conn, err := client.TCPDial(p, server.Addr(80))
		if err != nil {
			t.Error(err)
			return
		}
		if conn.RemoteAddr() != server.Addr(80) {
			t.Errorf("remote %v", conn.RemoteAddr())
		}
		conn.Send([]byte("hello"))
		got, _ = conn.Recv(p)
		conn.Close()
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
	if string(got) != "ok:hello" {
		t.Fatalf("got %q", got)
	}
}

func TestTCPDialErrors(t *testing.T) {
	s, n, _ := newNet()
	client := n.AddHost("client")
	n.AddHost("server")
	s.Spawn("client", func(p *sim.Proc) {
		if _, err := client.TCPDial(p, Addr{Host: "ghost", Port: 1}); err == nil {
			t.Error("dial to unknown host should fail")
		}
		if _, err := client.TCPDial(p, Addr{Host: "server", Port: 1}); err == nil {
			t.Error("dial to closed port should fail")
		}
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
}

func TestTCPCloseDelivery(t *testing.T) {
	s, n, _ := newNet()
	server := n.AddHost("server")
	client := n.AddHost("client")
	l := server.MustTCPListen(80)
	var errGot error
	s.Spawn("server", func(p *sim.Proc) {
		conn := l.Accept(p)
		_, errGot = conn.Recv(p)
	})
	s.Spawn("client", func(p *sim.Proc) {
		conn, _ := client.TCPDial(p, server.Addr(80))
		p.Sleep(time.Microsecond)
		conn.Close()
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
	if !errors.Is(errGot, ErrConnClosed) {
		t.Fatalf("err = %v, want ErrConnClosed", errGot)
	}
}

func TestTCPAbortReset(t *testing.T) {
	s, n, _ := newNet()
	server := n.AddHost("server")
	client := n.AddHost("client")
	l := server.MustTCPListen(80)
	var errGot error
	s.Spawn("server", func(p *sim.Proc) {
		conn := l.Accept(p)
		_, errGot = conn.Recv(p)
	})
	s.Spawn("client", func(p *sim.Proc) {
		conn, _ := client.TCPDial(p, server.Addr(80))
		conn.Abort()
		if err := conn.Send([]byte("x")); !errors.Is(err, ErrConnReset) {
			t.Errorf("send on reset conn: %v", err)
		}
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
	if !errors.Is(errGot, ErrConnReset) {
		t.Fatalf("err = %v, want ErrConnReset", errGot)
	}
}

func TestTCPHandshakeCostsOneRTT(t *testing.T) {
	s, n, _ := newNet()
	server := n.AddHost("server")
	client := n.AddHost("client")
	server.MustTCPListen(80)
	var dialTime time.Duration
	s.Spawn("client", func(p *sim.Proc) {
		start := p.Now()
		conn, err := client.TCPDial(p, server.Addr(80))
		if err != nil {
			t.Error(err)
			return
		}
		dialTime = p.Now().Sub(start)
		conn.Close()
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
	rtt := n.RTT(0)
	if dialTime < rtt/2 || dialTime > 2*rtt {
		t.Fatalf("handshake %v, want ~RTT %v", dialTime, rtt)
	}
}

// Property: a TCP connection delivers exactly the sent byte sequences, in
// order, for any message sizes.
func TestTCPStreamIntegrityProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 50 {
			sizes = sizes[:50]
		}
		s, n, _ := newNet()
		server := n.AddHost("server")
		client := n.AddHost("client")
		l := server.MustTCPListen(80)
		var sent, rcvd [][]byte
		s.Spawn("server", func(p *sim.Proc) {
			conn := l.Accept(p)
			for range sizes {
				msg, err := conn.Recv(p)
				if err != nil {
					return
				}
				rcvd = append(rcvd, msg)
			}
		})
		s.Spawn("client", func(p *sim.Proc) {
			conn, err := client.TCPDial(p, server.Addr(80))
			if err != nil {
				return
			}
			for i, sz := range sizes {
				msg := make([]byte, int(sz)%2000+1)
				for j := range msg {
					msg[j] = byte(i + j)
				}
				sent = append(sent, msg)
				conn.Send(msg)
			}
		})
		s.RunUntil(sim.Time(10 * time.Second))
		s.Shutdown()
		if len(rcvd) != len(sent) {
			return false
		}
		for i := range sent {
			if !bytes.Equal(sent[i], rcvd[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRTTScalesWithSize(t *testing.T) {
	_, n, _ := newNet()
	if n.RTT(1) >= n.RTT(100000) {
		t.Fatal("RTT must grow with payload size")
	}
}

// Messages beyond the MTU fragment: more wire bytes, later arrival.
func TestMTUFragmentation(t *testing.T) {
	s, n, _ := newNet()
	a, b := n.AddHost("a"), n.AddHost("b")
	src := a.MustUDPBind(1)
	dst := b.MustUDPBind(2)
	measure := func(size int) time.Duration {
		var got time.Duration
		done := false
		s.Spawn("m", func(p *sim.Proc) {
			start := p.Now()
			src.SendTo(dst.Addr(), make([]byte, size))
			dst.Recv(p)
			got = p.Now().Sub(start)
			done = true
		})
		s.RunUntilCond(s.Now().Add(time.Second), time.Millisecond, func() bool { return done })
		return got
	}
	small := measure(1400) // 1 fragment
	large := measure(4000) // 3 fragments
	if large <= small {
		t.Fatalf("4000B (%v) must take longer than 1400B (%v)", large, small)
	}
	// 3 fragments -> 3x headers + 3x switch latency beyond pure payload
	// serialization.
	extraSer := time.Duration(float64((4000-1400)*8) / 40e9 * 1e9 * 2)
	if large-small < extraSer {
		t.Fatalf("fragmentation overhead missing: delta %v < payload-only %v", large-small, extraSer)
	}
	if n.RTT(100) >= n.RTT(4000) {
		t.Fatal("RTT must grow with fragmentation")
	}
}

func TestHostLookupAndAccessors(t *testing.T) {
	s, n, _ := newNet()
	h := n.AddHost("alpha")
	if h.Name() != "alpha" {
		t.Fatalf("name %q", h.Name())
	}
	if got, ok := n.Host("alpha"); !ok || got != h {
		t.Fatal("lookup failed")
	}
	if _, ok := n.Host("ghost"); ok {
		t.Fatal("ghost host found")
	}
	sock := h.MustUDPBind(9)
	if sock.Pending() != 0 {
		t.Fatal("fresh socket has pending datagrams")
	}
	sock.Close()
	if _, err := h.UDPBind(9); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	_ = s
}

func TestUDPRecvTimeout(t *testing.T) {
	s, n, _ := newNet()
	h := n.AddHost("a")
	sock := h.MustUDPBind(1)
	var ok bool
	s.Spawn("x", func(p *sim.Proc) {
		_, ok, _ = sock.RecvTimeout(p, 20*time.Microsecond)
	})
	s.Run()
	if ok {
		t.Fatal("timeout expected")
	}
}

func TestTCPListenerCloseAndConnAccessors(t *testing.T) {
	s, n, _ := newNet()
	server := n.AddHost("server")
	client := n.AddHost("client")
	l := server.MustTCPListen(80)
	s.Spawn("srv", func(p *sim.Proc) {
		conn := l.Accept(p)
		if conn.LocalAddr() != server.Addr(80) {
			t.Errorf("server local %v", conn.LocalAddr())
		}
		// RecvTimeout: nothing arrives.
		if _, ok, err := conn.RecvTimeout(p, 10*time.Microsecond); ok || err != nil {
			t.Errorf("recvtimeout ok=%v err=%v", ok, err)
		}
	})
	s.Spawn("cli", func(p *sim.Proc) {
		conn, err := client.TCPDial(p, server.Addr(80))
		if err != nil {
			t.Error(err)
			return
		}
		if conn.Reset() {
			t.Error("fresh conn reset")
		}
		conn.Abort()
		if !conn.Reset() {
			t.Error("abort not visible")
		}
		if _, _, err := conn.RecvTimeout(p, time.Microsecond); err == nil {
			t.Error("recv on reset conn must error")
		}
		l.Close()
		if _, err := client.TCPDial(p, server.Addr(80)); err == nil {
			t.Error("dial after listener close must fail")
		}
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
}

func TestTCPDoubleCloseIsIdempotent(t *testing.T) {
	s, n, _ := newNet()
	server := n.AddHost("server")
	client := n.AddHost("client")
	l := server.MustTCPListen(80)
	s.Spawn("srv", func(p *sim.Proc) { l.Accept(p) })
	s.Spawn("cli", func(p *sim.Proc) {
		conn, _ := client.TCPDial(p, server.Addr(80))
		conn.Close()
		conn.Close() // no-op
		if err := conn.Send([]byte("x")); err == nil {
			t.Error("send after close must fail")
		}
	})
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
}

// tcpExchangeTrace runs one connection through the TCP forms of one
// substrate: the server accepts and echoes every message until its receive
// fails; the client dials, sends three messages, reads each echo, and then
// ends the connection with Close or Abort. Both ends run as Tasks when task
// is set and as Procs otherwise. Each entry carries the virtual time and the
// executed-event count, so any difference in scheduler slots shows.
func tcpExchangeTrace(task, abort bool) []string {
	s, n, _ := newNet()
	server := n.AddHost("server")
	client := n.AddHost("client")
	l := server.MustTCPListen(80)
	var trace []string
	rec := func(who string, msg []byte, enq sim.Time, err error) {
		trace = append(trace, fmt.Sprintf("%v #%d %s %q enq=%v err=%v", s.Now(), s.Executed(), who, msg, enq, err))
	}
	msg := func(i int) []byte { return []byte(fmt.Sprintf("m%d", i)) }
	end := func(conn *TCPConn) {
		if abort {
			conn.Abort()
		} else {
			conn.Close()
		}
		rec("client ended", nil, 0, nil)
	}
	if !task {
		s.Spawn("server", func(p *sim.Proc) {
			conn := l.Accept(p)
			rec("accepted", nil, 0, nil)
			for {
				m, enq, err := conn.RecvQueued(p)
				rec("server got", m, enq, err)
				if err != nil {
					return
				}
				conn.Send(append([]byte("ok:"), m...))
			}
		})
		s.Spawn("client", func(p *sim.Proc) {
			conn, err := client.TCPDial(p, server.Addr(80))
			rec("dialed", nil, 0, err)
			for i := 0; i < 3; i++ {
				conn.Send(msg(i))
				m, enq, err := conn.RecvQueued(p)
				rec("client got", m, enq, err)
				p.Sleep(3 * time.Microsecond)
			}
			end(conn)
		})
	} else {
		s.SpawnTask("server", func(t *sim.Task) {
			var conn *TCPConn
			var got func(m []byte, enq sim.Time, err error)
			got = func(m []byte, enq sim.Time, err error) {
				rec("server got", m, enq, err)
				if err != nil {
					return
				}
				conn.Send(append([]byte("ok:"), m...))
				conn.RecvQueuedT(t, got)
			}
			accepted := func(c *TCPConn) {
				conn = c
				rec("accepted", nil, 0, nil)
				conn.RecvQueuedT(t, got)
			}
			if c, ok := l.AcceptT(t, accepted); ok {
				accepted(c)
			}
		})
		s.SpawnTask("client", func(t *sim.Task) {
			var conn *TCPConn
			i := 0
			var send func()
			got := func(m []byte, enq sim.Time, err error) {
				rec("client got", m, enq, err)
				i++
				t.Sleep(3*time.Microsecond, send)
			}
			send = func() {
				if i == 3 {
					end(conn)
					return
				}
				conn.Send(msg(i))
				conn.RecvQueuedT(t, got)
			}
			err := client.TCPDialT(t, server.Addr(80), func(c *TCPConn) {
				conn = c
				rec("dialed", nil, 0, nil)
				send()
			})
			if err != nil {
				rec("dialed", nil, 0, err)
			}
		})
	}
	s.RunUntil(sim.Time(time.Second))
	s.Shutdown()
	return trace
}

// The Task forms AcceptT, TCPDialT and RecvQueuedT burn the same scheduler
// slots as Accept, TCPDial and RecvQueued: the same exchange records the same
// trace on either substrate, through a graceful close and through a reset,
// both of which the blocked receiver notices at its state poll.
func TestTCPTaskFormsMatchProcForms(t *testing.T) {
	for _, abort := range []bool{false, true} {
		proc, task := tcpExchangeTrace(false, abort), tcpExchangeTrace(true, abort)
		if strings.Join(proc, "\n") != strings.Join(task, "\n") {
			t.Fatalf("abort=%v: Task trace diverges from the Proc trace:\nproc:\n%s\ntask:\n%s",
				abort, strings.Join(proc, "\n"), strings.Join(task, "\n"))
		}
		want := ErrConnClosed
		if abort {
			want = ErrConnReset
		}
		last := proc[len(proc)-1]
		if !strings.Contains(last, "server got") || !strings.Contains(last, want.Error()) {
			t.Errorf("abort=%v: exchange ended with %q, want the server to see %v", abort, last, want)
		}
		if len(proc) != 10 {
			t.Errorf("abort=%v: %d trace entries, want 10:\n%s", abort, len(proc), strings.Join(proc, "\n"))
		}
	}
}

// TCPDialT fails inline, without parking, on an unroutable host or a port
// nobody listens on.
func TestTCPDialTErrors(t *testing.T) {
	s, n, _ := newNet()
	client := n.AddHost("client")
	n.AddHost("server")
	s.SpawnTask("client", func(tk *sim.Task) {
		for _, to := range []Addr{{Host: "ghost", Port: 1}, {Host: "server", Port: 1}} {
			if err := client.TCPDialT(tk, to, func(*TCPConn) { t.Errorf("dial to %v connected", to) }); err == nil {
				t.Errorf("dial to %v should fail", to)
			}
		}
	})
	s.RunUntil(sim.Time(time.Second))
	if s.Live() != 0 {
		t.Fatalf("a failed dial left %d live tasks", s.Live())
	}
	s.Shutdown()
}
