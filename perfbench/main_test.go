package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// tiny returns a copy of the named workload with a few-millisecond window,
// so a whole measurement (minReps repetitions) takes well under a second.
func tiny(t *testing.T, name string) *workloadDef {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	c := *w
	c.warmup, c.window, c.drain = time.Millisecond, 3*time.Millisecond, 20*time.Millisecond
	return &c
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := measure(tiny(t, w.name), options{seed: 7, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d notes=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.notes)
			}
			want := endToEndDefs
			if traced {
				want = perLayerDefs
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
			}
			if !traced {
				for _, d := range endToEndDefs {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestCorruptedRepliesFail corrupts every reply one check judges and
// requires each of them to be counted as a failed request.
func TestCorruptedRepliesFail(t *testing.T) {
	cases := []struct {
		name, workload string
		corrupt        func(reply []byte) bool // reports whether it corrupted
	}{
		{"echo bytes", "echo-bf240", func(p []byte) bool { p[len(p)-1] ^= 0xff; return true }},
		{"lenet class", "lenet-k80", func(p []byte) bool { p[seqBytes] = (p[seqBytes] + 1) % 10; return true }},
		{"kv set STORED", "kv-rack3", func(p []byte) bool {
			if !bytes.HasPrefix(p[seqBytes:], []byte("STORED")) {
				return false
			}
			copy(p[seqBytes:], "STORES")
			return true
		}},
		{"kv get value", "kv-rack3", func(p []byte) bool {
			body := p[seqBytes:]
			if !bytes.HasPrefix(body, []byte("VALUE ")) {
				return false
			}
			i := bytes.Index(body, []byte("\r\n"))
			body[i+2] ^= 1 // first value byte: no set or preload wrote this value
			return true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var corrupted uint64
			res, err := measure(tiny(t, tc.workload), options{seed: 3, corrupt: func(p []byte) {
				if tc.corrupt(p) {
					corrupted++
				}
			}})
			if err != nil {
				t.Fatal(err)
			}
			if corrupted == 0 {
				t.Fatal("no reply was corrupted")
			}
			if res.Correct || res.Failed != corrupted {
				t.Fatalf("correct=%v failed=%d, want false and %d (every corrupted reply)", res.Correct, res.Failed, corrupted)
			}
		})
	}
}

// TestSameSeedSameOutcome checks the determinism guard's premise: one seed
// computes one outcome, and another seed generates other requests.
func TestSameSeedSameOutcome(t *testing.T) {
	for _, w := range workloads {
		tw := tiny(t, w.name)
		a, err := rep(tw, options{seed: 5}, &tracer{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := rep(tw, options{seed: 5}, &tracer{on: true, t0: time.Now()})
		if err != nil {
			t.Fatal(err)
		}
		if a.sim != b.sim {
			t.Errorf("%s: seed 5 computed two outcomes:\n%+v\n%+v", w.name, a.sim, b.sim)
		}
		c, err := rep(tw, options{seed: 6}, &tracer{})
		if err != nil {
			t.Fatal(err)
		}
		if c.sim.inputs == a.sim.inputs {
			t.Errorf("%s: seeds 5 and 6 generated identical requests", w.name)
		}
	}
}

func TestBadArgumentsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "echo-bf240", "--trace", "2"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q, want a non-zero exit and no output", args, code, out.String())
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the metrics and
// workloads the benchmark declares.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %+v, want %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != w.bound) {
				t.Errorf("%s %d = %+v, want %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndDefs, true)
	check("per_layer", doc.PerLayer, perLayerDefs, false)
}

var sink [][]byte

func TestProfileDecoderAttributesAllocations(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	sink = nil
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	vi, err := p.valueIndex("alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	var mine int64
	for _, s := range p.samples {
		for _, f := range s.stack {
			if strings.HasSuffix(f.name, ".TestProfileDecoderAttributesAllocations") {
				mine += s.values[vi]
				if mod := allocModule(s.stack); mod != "bench" {
					t.Errorf("this test's allocation is charged to %q, want bench", mod)
				}
				break
			}
		}
	}
	if mine < 1000*1024 {
		t.Errorf("samples naming this test hold %d bytes, want at least the %d it allocated", mine, 1000*1024)
	}
}

func TestModuleOf(t *testing.T) {
	for _, tc := range []struct{ name, file, want string }{
		{"lynx/internal/sim.(*Sim).RunUntil", "/x/internal/sim/sim.go", "sim"},
		{"lynx/internal/sim.(*Chan[go.shape.struct { lynx/internal/netstack.From int }]).Get", "", "sim"},
		{"lynx/internal/apps/lenet.(*Network).Infer", "", "lenet"},
		{"lynx/internal/core.(*Replicator).pump", "/x/internal/core/replicate.go", "repl"},
		{"lynx/internal/core.(*Runtime).exec", "/x/internal/core/runtime.go", "core"},
		{"runtime.mallocgc", "", "goruntime"},
		{"internal/runtime/atomic.(*Uint32).Load", "", "goruntime"},
		{"main.(*load).reply", "", "bench"},
		{"runtime/pprof.(*profileBuilder).build", "", "bench"},
	} {
		if got, _ := moduleOf(frame{name: tc.name, file: tc.file}); got != tc.want {
			t.Errorf("moduleOf(%s) = %q, want %q", tc.name, got, tc.want)
		}
	}
	stack := []frame{{name: "bytes.Equal"}, {name: "lynx/internal/mqueue.(*Queue).Push"}}
	if got := flatModule(stack); got != "mqueue" {
		t.Errorf("a standard-library leaf is charged to %q, want its caller mqueue", got)
	}
}

// TestReferenceAllocatesNothing guards the reference computation's premise:
// it triggers no garbage collection, so the heap a workload leaves behind
// cannot change its time and thereby host_s.
func TestReferenceAllocatesNothing(t *testing.T) {
	reference() // builds the working set
	if n := testing.AllocsPerRun(2, func() { reference() }); n != 0 {
		t.Errorf("reference() makes %v allocations, want 0", n)
	}
}
