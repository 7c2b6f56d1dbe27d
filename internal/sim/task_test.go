package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestTaskGetsFromProcFedChan: a Task parked in GetT is fed by a coroutine
// Proc. Values arrive in order and the continuation observes the hand-off
// time, per the wait-booking contract.
func TestTaskGetsFromProcFedChan(t *testing.T) {
	s := New(Config{})
	ch := NewChan[int](s, 0)
	var got []int
	var at []Time
	s.SpawnTask("consumer", func(tk *Task) {
		var step func(v int)
		step = func(v int) {
			got = append(got, v)
			at = append(at, tk.Now())
			if len(got) < 3 {
				if v, ok := ch.GetT(tk, step); ok {
					step(v)
				}
			}
		}
		if v, ok := ch.GetT(tk, step); ok {
			step(v)
		}
	})
	s.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(time.Microsecond)
			ch.Put(p, i*10)
		}
	})
	s.Run()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("got %v", got)
	}
	for i, a := range at {
		if want := Time(time.Duration(i+1) * time.Microsecond); a != want {
			t.Errorf("value %d delivered at %v, want %v", i, a, want)
		}
	}
	if s.Live() != 0 {
		t.Fatalf("%d live processes after run", s.Live())
	}
}

// TestProcGetsFromTaskFedChan: the reverse direction — a Proc blocked in Get
// receives from a Task putting via PutT.
func TestProcGetsFromTaskFedChan(t *testing.T) {
	s := New(Config{})
	ch := NewChan[int](s, 0)
	var got []int
	s.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, ch.Get(p))
		}
	})
	s.SpawnTask("producer", func(tk *Task) {
		i := 0
		var step func()
		step = func() {
			if i >= 3 {
				return
			}
			i++
			tk.Sleep(time.Microsecond, func() {
				if ch.PutT(tk, i*10, step) {
					step()
				}
			})
		}
		step()
	})
	s.Run()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("got %v", got)
	}
	if s.Live() != 0 {
		t.Fatalf("%d live processes after run", s.Live())
	}
}

// TestTaskPutBlocksAtCapacity: a Task's PutT parks once the buffer is full
// and resumes when a Proc drains, exactly like a blocked Proc putter.
func TestTaskPutBlocksAtCapacity(t *testing.T) {
	s := New(Config{})
	ch := NewChan[int](s, 1)
	var putDone, getAt Time
	s.SpawnTask("producer", func(tk *Task) {
		done := func() { putDone = tk.Now() }
		if ch.PutT(tk, 1, nil) { // fills inline
			if ch.PutT(tk, 2, done) { // must park
				done()
			}
		}
	})
	s.Spawn("consumer", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		getAt = p.Now()
		_ = ch.Get(p)
		_ = ch.Get(p)
	})
	s.Run()
	if putDone < getAt {
		t.Fatalf("second PutT finished at %v before the consumer ran at %v", putDone, getAt)
	}
}

// TestTaskParkedOnGate: WaitT parks until Fire; WaitTimeoutT times out
// without a fire and reports the fire when it wins the race.
func TestTaskParkedOnGate(t *testing.T) {
	s := New(Config{})
	g := NewGate(s)
	var wokeAt Time
	var timedOut, fired bool
	s.SpawnTask("waiter", func(tk *Task) {
		v := g.Version()
		afterFire := func() {
			wokeAt = tk.Now()
			if inl, _ := g.WaitTimeoutT(tk, g.Version(), 5*time.Microsecond, func(f bool) {
				timedOut = !f
				if inl2, f2 := g.WaitTimeoutT(tk, g.Version(), time.Second, func(f3 bool) { fired = f3 }); inl2 {
					fired = f2
				}
			}); inl {
				t.Error("second wait should have parked")
			}
		}
		if g.WaitT(tk, v, afterFire) {
			t.Error("first wait should have parked")
		}
	})
	s.Spawn("firer", func(p *Proc) {
		p.Sleep(10 * time.Microsecond)
		g.Fire()
		p.Sleep(20 * time.Microsecond)
		g.Fire()
	})
	s.RunUntil(Time(time.Second))
	s.Shutdown()
	if wokeAt != Time(10*time.Microsecond) {
		t.Fatalf("gate wake at %v, want 10µs", wokeAt)
	}
	if !timedOut {
		t.Fatal("5µs wait without a fire should have timed out")
	}
	if !fired {
		t.Fatal("second fire should have won the 1s wait")
	}
}

// TestTaskResourceFIFOWithProcs: Task and Proc waiters on one resource are
// granted strictly FIFO, regardless of substrate.
func TestTaskResourceFIFOWithProcs(t *testing.T) {
	s := New(Config{})
	r := NewResource(s, 1)
	var order []string
	// Spawn alternating substrates; each holds the unit for 10µs.
	for i, kind := range []string{"proc", "task", "proc", "task"} {
		name := kind
		if kind == "proc" {
			s.Spawn(name, func(p *Proc) {
				r.With(p, 10*time.Microsecond, nil)
				order = append(order, name)
			})
		} else {
			s.SpawnTask(name, func(tk *Task) {
				r.WithT(tk, 10*time.Microsecond, func() {
					order = append(order, name)
				})
			})
		}
		_ = i
	}
	s.Run()
	want := []string{"proc", "task", "proc", "task"}
	if len(order) != 4 {
		t.Fatalf("%d completions, want 4", len(order))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v is not spawn-FIFO", order)
		}
	}
}

// TestTaskNestedWithTReusesFrame: nested Resource.WithT calls issued from
// inside the previous call's continuation must be safe (they reuse the
// task's single resFrame) and keep exact virtual-time accounting.
func TestTaskNestedWithTReusesFrame(t *testing.T) {
	s := New(Config{})
	r1 := NewResource(s, 1)
	r2 := NewResource(s, 1)
	var doneAt Time
	s.SpawnTask("nested", func(tk *Task) {
		r1.WithT(tk, 10*time.Microsecond, func() {
			r2.WithT(tk, 5*time.Microsecond, func() {
				r1.WithT(tk, 0, func() { // zero-hold inline path
					doneAt = tk.Now()
				})
			})
		})
	})
	s.Run()
	if doneAt != Time(15*time.Microsecond) {
		t.Fatalf("nested WithT chain finished at %v, want 15µs", doneAt)
	}
	if r1.InUse() != 0 || r2.InUse() != 0 {
		t.Fatal("resource units leaked")
	}
}

// TestTaskProcSameInstantOrdering: wakes scheduled for the same instant run
// in schedule order with no substrate tie-break — a Task wake scheduled
// before a Proc wake runs first, and vice versa.
func TestTaskProcSameInstantOrdering(t *testing.T) {
	run := func(taskFirst bool) []string {
		s := New(Config{})
		var order []string
		spawnTask := func() {
			s.SpawnTask("t", func(tk *Task) {
				tk.Sleep(time.Microsecond, func() { order = append(order, "task") })
			})
		}
		spawnProc := func() {
			s.Spawn("p", func(p *Proc) {
				p.Sleep(time.Microsecond)
				order = append(order, "proc")
			})
		}
		if taskFirst {
			spawnTask()
			spawnProc()
		} else {
			spawnProc()
			spawnTask()
		}
		s.Run()
		return order
	}
	if got := run(true); got[0] != "task" || got[1] != "proc" {
		t.Fatalf("task scheduled first must wake first: %v", got)
	}
	if got := run(false); got[0] != "proc" || got[1] != "task" {
		t.Fatalf("proc scheduled first must wake first: %v", got)
	}
}

// TestTaskKillRunsOnKill: killing a parked Task removes its waiter, runs the
// OnKill hook, and leaves the channel usable by others.
func TestTaskKillRunsOnKill(t *testing.T) {
	s := New(Config{})
	ch := NewChan[int](s, 0)
	cleaned := false
	var victim *Task
	victim = s.SpawnTask("victim", func(tk *Task) {
		tk.OnKill(func() { cleaned = true })
		ch.GetT(tk, func(int) { t.Error("killed task's continuation ran") })
	})
	var got int
	s.Spawn("survivor", func(p *Proc) {
		p.Sleep(2 * time.Microsecond)
		got = ch.Get(p)
	})
	s.After(time.Microsecond, func() { victim.Kill() })
	s.Spawn("producer", func(p *Proc) {
		p.Sleep(3 * time.Microsecond)
		ch.Put(p, 7)
	})
	s.Run()
	if !cleaned {
		t.Fatal("OnKill hook never ran")
	}
	if got != 7 {
		t.Fatalf("survivor got %d, want 7 (killed task's waiter not removed?)", got)
	}
	if s.Live() != 0 {
		t.Fatalf("live = %d", s.Live())
	}
}

// TestTaskDeterminism: a mixed Task/Proc workload over shared channels and
// resources produces an identical execution trace on every run.
func TestTaskDeterminism(t *testing.T) {
	run := func() []string {
		s := New(Config{Seed: 9})
		ch := NewChan[int](s, 2)
		r := NewResource(s, 1)
		var order []string
		s.SpawnTask("taskworker", func(tk *Task) {
			var loop func(v int)
			loop = func(v int) {
				r.WithT(tk, time.Duration(1+v%3)*time.Microsecond, func() {
					order = append(order, "task")
					if v < 20 {
						if nv, ok := ch.GetT(tk, loop); ok {
							loop(nv)
						}
					}
				})
			}
			if v, ok := ch.GetT(tk, loop); ok {
				loop(v)
			}
		})
		s.Spawn("procworker", func(p *Proc) {
			for i := 0; i < 10; i++ {
				r.With(p, time.Duration(1+i%2)*time.Microsecond, nil)
				order = append(order, "proc")
			}
		})
		s.Spawn("feeder", func(p *Proc) {
			for i := 1; i <= 21; i++ {
				p.Sleep(time.Duration(p.Sim().Rand().IntN(4)) * time.Microsecond)
				ch.Put(p, i)
			}
		})
		s.RunUntil(Time(time.Second))
		s.Shutdown()
		return order
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("empty trace")
	}
	for i := 0; i < 3; i++ {
		if got := run(); !equalStrings(got, first) {
			t.Fatalf("nondeterministic mixed-substrate trace:\n%v\nvs\n%v", first, got)
		}
	}
}

// getTimeoutTrace runs one consumer through hand-offs, a timeout, a stale
// timeout that outlives its recycled waiter node, a same-instant race between
// a put and a deadline, and the two inline cases (a buffered value, and
// d <= 0 on an empty channel). The consumer runs on the Task substrate when
// task is set and on a Proc otherwise; the producer is always a Proc. Each
// trace entry carries the virtual time and the executed-event count.
func getTimeoutTrace(task bool) []string {
	s := New(Config{})
	ch := NewChan[int](s, 0)
	var trace []string
	rec := func(who string, v int, ok bool) {
		trace = append(trace, fmt.Sprintf("%v #%d %s %d %v", s.Now(), s.Executed(), who, v, ok))
	}
	type step struct{ sleep, d time.Duration }
	us := time.Microsecond
	steps := []step{{d: 5 * us}, {d: 5 * us}, {d: 3 * us}, {d: 10 * us}, {d: 2 * us}, {sleep: 7 * us}, {}}
	s.Spawn("producer", func(p *Proc) {
		for i, at := range []Time{Time(2 * us), Time(8 * us), Time(12 * us), Time(14 * us), Time(20 * us)} {
			p.Sleep(at.Sub(p.Now()))
			ch.Put(p, i+1)
			rec("put", i+1, true)
		}
	})
	if !task {
		s.Spawn("consumer", func(p *Proc) {
			for _, st := range steps {
				p.Sleep(st.sleep)
				v, ok := ch.GetTimeout(p, st.d)
				rec("get", v, ok)
			}
		})
	} else {
		s.SpawnTask("consumer", func(tk *Task) {
			i := 0
			var next func()
			got := func(v int, ok bool) {
				rec("get", v, ok)
				i++
				next()
			}
			get := func() {
				if v, ok, inline := ch.GetTimeoutT(tk, steps[i].d, got); inline {
					got(v, ok)
				}
			}
			next = func() {
				if i < len(steps) {
					tk.Sleep(steps[i].sleep, get)
				}
			}
			next()
		})
	}
	s.Run()
	return trace
}

// TestGetTimeoutTMatchesGetTimeout: GetTimeoutT burns the same scheduler
// slots as GetTimeout, so a Task consumer and a Proc consumer record the
// same (time, event count) trace through hand-offs, timeouts and stale
// timeouts.
func TestGetTimeoutTMatchesGetTimeout(t *testing.T) {
	proc, task := getTimeoutTrace(false), getTimeoutTrace(true)
	if strings.Join(proc, "\n") != strings.Join(task, "\n") {
		t.Fatalf("Task trace diverges from the Proc trace:\nproc:\n%s\ntask:\n%s",
			strings.Join(proc, "\n"), strings.Join(task, "\n"))
	}
	want := []string{"get 1 true", "get 0 false", "get 2 true", "get 3 true"}
	var gets []string
	for _, e := range proc {
		if f := strings.Fields(e); f[2] == "get" {
			gets = append(gets, strings.Join(f[2:], " "))
		}
	}
	if len(gets) != 7 {
		t.Fatalf("consumer recorded %d gets, want 7:\n%s", len(gets), strings.Join(proc, "\n"))
	}
	for i, w := range want {
		if gets[i] != w {
			t.Errorf("get %d = %q, want %q (the 3µs deadline of get 3 must not cut get 4's wait)", i, gets[i], w)
		}
	}
	if last := gets[len(gets)-2:]; last[0] != "get 5 true" || last[1] != "get 0 false" {
		t.Errorf("inline cases = %v, want a buffered value then an immediate timeout", last)
	}
}

// TestGetTimeoutTKillLeavesNoWaiter: killing a task parked in GetTimeoutT,
// directly or through Shutdown, removes its waiter, and the pending timeout
// then fires as a no-op.
func TestGetTimeoutTKillLeavesNoWaiter(t *testing.T) {
	for _, shutdown := range []bool{false, true} {
		s := New(Config{})
		ch := NewChan[int](s, 0)
		ran := false
		tk := s.SpawnTask("getter", func(tk *Task) {
			ch.GetTimeoutT(tk, time.Millisecond, func(int, bool) { ran = true })
		})
		s.RunUntil(Time(time.Microsecond))
		if n := ch.getters.len(); n != 1 {
			t.Fatalf("shutdown=%v: %d parked getters, want 1", shutdown, n)
		}
		if shutdown {
			s.Shutdown()
		} else {
			tk.Kill()
			s.Run()
			if !ch.TryPut(1) || ch.Len() != 1 {
				t.Errorf("a put after the kill must buffer, not hand off to a dead waiter")
			}
		}
		if n := ch.getters.len(); n != 0 {
			t.Errorf("shutdown=%v: %d getters left behind", shutdown, n)
		}
		if ran {
			t.Errorf("shutdown=%v: continuation of a killed task ran", shutdown)
		}
		if s.Live() != 0 {
			t.Errorf("shutdown=%v: Live() = %d, want 0", shutdown, s.Live())
		}
	}
}
