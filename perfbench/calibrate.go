package main

import (
	"container/heap"
	"time"
)

// The reference computation is a fixed piece of standard-library Go, timed
// between repetitions. It does the kinds of work the workloads do — goroutine
// hand-off over channels, a pointer-linked event heap with payload copies,
// map churn, and float32 convolution — and runs nothing from this
// repository, so its host time moves only with the speed of the machine. The
// benchmark divides the workload's host time by it, which takes out the drift
// of a shared machine's speed over minutes (see README.md, Steadiness).
//
// It allocates next to nothing after its first call, so it triggers no
// garbage collection and its time does not depend on the heap the workload
// left behind.

// refRounds sizes the reference computation: about 0.3 s on a 2-vCPU Xeon.
const refRounds = 72

// refNominalS is the reference computation's median host time on the machine
// the bounds were set on. host_s is scaled to that machine's speed.
const refNominalS = 0.3

// refEvent is one entry of the reference computation's event heap.
type refEvent struct {
	at   uint64
	data []byte
	next *refEvent
}

type refHeap []*refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// refState is the reference computation's working set, built once.
type refState struct {
	ping, pong chan uint64
	events     []refEvent
	heap       refHeap
	buf        []byte
	table      map[uint64]*refEvent
	img, kern  []float32
	out        []float32
}

var refWork *refState

// reference runs the reference computation once and returns its host time.
func reference() time.Duration {
	if refWork == nil {
		refWork = newRefState()
	}
	t0 := time.Now()
	var v uint64
	for r := uint64(0); r < refRounds; r++ {
		v += refWork.handOff(r)
		v += refWork.schedule(r)
		for k := uint64(0); k < 3; k++ {
			v += refWork.churn(k)
			v += refWork.convolve(r*3 + k)
		}
	}
	refSink = v
	return time.Since(t0)
}

// refSink keeps the reference computation's result alive.
var refSink uint64

func newRefState() *refState {
	s := &refState{
		ping: make(chan uint64), pong: make(chan uint64),
		events: make([]refEvent, 4096), heap: make(refHeap, 0, 1024), buf: make([]byte, 128),
		table: make(map[uint64]*refEvent, 1024),
		img:   make([]float32, 32*32), kern: make([]float32, 6*5*5), out: make([]float32, 6*28*28),
	}
	for i := range s.events {
		s.events[i].data = make([]byte, 128)
	}
	for i := range s.kern {
		s.kern[i] = float32(i%7) / 7
	}
	go func() {
		for v := range s.ping {
			s.pong <- v + 1
		}
	}()
	return s
}

// handOff bounces a value between two goroutines.
func (s *refState) handOff(v uint64) uint64 {
	for i := 0; i < 1500; i++ {
		s.ping <- v
		v = <-s.pong
	}
	return v
}

// schedule pushes every event through a bounded heap, writing its payload on
// the way in and copying it out on the way out.
func (s *refState) schedule(x uint64) uint64 {
	var v uint64
	var prev *refEvent
	s.heap = s.heap[:0]
	for i := range s.events {
		x = mix64(x)
		e := &s.events[i]
		e.at, e.next = x%100000, prev
		for j := range e.data[:64+x%64] {
			e.data[j] = byte(x >> (j & 31))
		}
		prev = e
		heap.Push(&s.heap, e)
		if s.heap.Len() > 512 {
			e := heap.Pop(&s.heap).(*refEvent)
			v += uint64(copy(s.buf, e.data)) + e.at
		}
	}
	return v
}

// churn inserts and deletes every event in a table keyed like a connection
// or span table.
func (s *refState) churn(salt uint64) uint64 {
	var v uint64
	clear(s.table)
	for i := len(s.events) - 1; i >= 0; i-- {
		e := &s.events[i]
		k := (e.at + salt) % 997
		if o, ok := s.table[k]; ok {
			v += o.at
			delete(s.table, k)
		} else {
			s.table[k] = e
		}
	}
	return v + uint64(len(s.table))
}

// convolve is a LeNet-sized first layer: six 5x5 filters over a 32x32 image.
func (s *refState) convolve(x uint64) uint64 {
	for i := range s.img {
		x = mix64(x)
		s.img[i] = float32(x&0xff) / 255
	}
	for c := 0; c < 6; c++ {
		for oy := 0; oy < 28; oy++ {
			for ox := 0; ox < 28; ox++ {
				var sum float32
				for ky := 0; ky < 5; ky++ {
					for kx := 0; kx < 5; kx++ {
						sum += s.img[(oy+ky)*32+ox+kx] * s.kern[c*25+ky*5+kx]
					}
				}
				s.out[c*784+oy*28+ox] = sum
			}
		}
	}
	return uint64(s.out[x%uint64(len(s.out))] * 1000)
}
