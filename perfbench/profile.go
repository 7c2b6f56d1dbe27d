package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// span is one host-time interval the benchmark recorded around a call into
// a layer: set-up phases, the simulation run, Close, and each LeNet
// classification made by the benchmark's own kernel bodies.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// tracer keeps spans in memory while on; begin and end cost nothing while
// off, so untraced runs carry no tracing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin() time.Time {
	if !t.on {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) end(name, parent string, start time.Time) {
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{
		Name: name, Parent: parent,
		StartNs: int64(start.Sub(t.t0)), DurNs: int64(time.Since(start)),
	})
}

// durations returns the durations of every span with the given name, in
// recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.DurNs))
		}
	}
	return out
}

// spanSummary is one row of the spans file's per-name table. Self time is
// the total minus the part covered by child spans.
type spanSummary struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

// write stores every span and the per-name summary as one JSON document.
func (t *tracer) write(path string) error {
	byName := map[string]*spanSummary{}
	var order []string
	for _, s := range t.spans {
		row, ok := byName[s.Name]
		if !ok {
			row = &spanSummary{Name: s.Name, Parent: s.Parent}
			byName[s.Name] = row
			order = append(order, s.Name)
		}
		row.Count++
		row.TotalNs += s.DurNs
		row.SelfNs += s.DurNs
	}
	for _, s := range t.spans {
		if p, ok := byName[s.Parent]; ok {
			p.SelfNs -= s.DurNs
		}
	}
	doc := struct {
		Summary []*spanSummary `json:"summary"`
		Spans   []span         `json:"spans"`
	}{Spans: t.spans}
	for _, name := range order {
		doc.Summary = append(doc.Summary, byName[name])
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// ---------------------------------------------------------------------------
// pprof decoding: a minimal reader of the gzipped profile.proto messages
// runtime/pprof writes, enough to attribute samples to packages.

// frame is one function on a sample's stack.
type frame struct {
	name string // fully qualified, e.g. lynx/internal/sim.(*Sim).RunUntil
	file string
}

type sample struct {
	stack  []frame // leaf first, inlined calls expanded
	values []int64
}

type profile struct {
	types   []string // sample value types, e.g. "samples", "alloc_space"
	samples []sample
}

// valueIndex returns the position of the named sample value type.
func (p *profile) valueIndex(name string) (int, error) {
	for i, t := range p.types {
		if t == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("profile has no %q values (has %v)", name, p.types)
}

var errTruncated = errors.New("pprof: truncated message")

// pbuf walks one protobuf message.
type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// field reads the next field: its number, and either its varint value or its
// length-delimited bytes.
func (p *pbuf) field() (num int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, nil, errTruncated
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	return num, v, data, err
}

// ints appends a repeated integer field, packed (data) or not (v).
func ints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	in := pbuf{data}
	for len(in.b) > 0 {
		x, err := in.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a gzipped pprof profile.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs     []string
		typeIdx  []uint64
		rawSamps []rawSample
		locLines = map[uint64][]uint64{}  // location id -> function ids, leaf first
		funcs    = map[uint64][2]uint64{} // function id -> name, file string indexes
		in       = pbuf{raw}
	)
	parseSub := func(data []byte, each func(num int, v uint64, data []byte) error) error {
		p := pbuf{data}
		for len(p.b) > 0 {
			num, v, d, err := p.field()
			if err != nil {
				return err
			}
			if err := each(num, v, d); err != nil {
				return err
			}
		}
		return nil
	}
	for len(in.b) > 0 {
		num, _, data, err := in.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 1: // sample_type
			err = parseSub(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err = parseSub(data, func(n int, v uint64, d []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = ints(s.locs, v, d)
				case 2:
					s.vals, err = ints(s.vals, v, d)
				}
				return err
			})
			rawSamps = append(rawSamps, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err = parseSub(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return parseSub(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
		case 5: // function
			var id, name, file uint64
			err = parseSub(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				case 4:
					file = v
				}
				return nil
			})
			funcs[id] = [2]uint64{name, file}
		case 6: // string_table
			strs = append(strs, string(data))
		}
		if err != nil {
			return nil, err
		}
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &profile{}
	for _, t := range typeIdx {
		p.types = append(p.types, str(t))
	}
	for _, rs := range rawSamps {
		s := sample{}
		for _, v := range rs.vals {
			s.values = append(s.values, int64(v))
		}
		for _, loc := range rs.locs {
			for _, fid := range locLines[loc] {
				f := funcs[fid]
				s.stack = append(s.stack, frame{name: str(f[0]), file: str(f[1])})
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

// Attribution classes of a frame.
const (
	classRepo    = iota // a package of this repository, or the benchmark
	classRuntime        // the Go runtime
	classStdlib         // any other standard-library package
)

// pkgOf returns the import path of a fully qualified function name.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return fn
}

// moduleOf names the layer a frame belongs to, using the repository's
// package names: lynx/internal/apps/lenet is "lenet", functions defined in
// internal/core/replicate.go are "repl", the benchmark (and the profiler it
// attaches) is "bench", and the Go runtime is "goruntime".
func moduleOf(f frame) (string, int) {
	pkg := pkgOf(f.name)
	switch {
	case pkg == "main" || pkg == "lynx/perfbench" || strings.HasPrefix(pkg, "runtime/pprof") || strings.HasPrefix(pkg, "compress/"):
		return "bench", classRepo
	case pkg == "lynx/internal/core" && strings.HasSuffix(f.file, "/core/replicate.go"):
		return "repl", classRepo
	case strings.HasPrefix(pkg, "lynx/internal/apps/"):
		return strings.TrimPrefix(pkg, "lynx/internal/apps/"), classRepo
	case strings.HasPrefix(pkg, "lynx/internal/"):
		return strings.SplitN(strings.TrimPrefix(pkg, "lynx/internal/"), "/", 2)[0], classRepo
	case pkg == "lynx":
		return "lynx", classRepo
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "goruntime", classRuntime
	}
	return "", classStdlib
}

// flatModule attributes a CPU sample to the module of its leaf frame; a
// leaf in a non-runtime standard-library package (bytes, sort, fmt...) is
// charged to the nearest caller in a named module.
func flatModule(stack []frame) string {
	for _, f := range stack {
		if mod, class := moduleOf(f); class != classStdlib {
			return mod
		}
	}
	return "other"
}

// allocModule attributes an allocation to the nearest frame in a named
// repository module: runtime helpers (makeslice, newproc) and standard
// library callers are charged to the code that called them.
func allocModule(stack []frame) string {
	for _, f := range stack {
		if mod, class := moduleOf(f); class == classRepo {
			return mod
		}
	}
	return "goruntime"
}

// hasFrame reports whether any frame's name starts with one of the prefixes.
func hasFrame(stack []frame, prefixes []string) bool {
	for _, f := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(f.name, p) {
				return true
			}
		}
	}
	return false
}

// gcFrames mark a sample as garbage-collector work (background marking,
// assists, sweeping, scavenging).
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.markroot",
	"runtime.gcDrain", "runtime.scanobject", "runtime.sweepone", "runtime.wbBufFlush",
}

// schedFrames mark a runtime-leaf sample as goroutine scheduling and
// hand-off: the cost of the coroutine processes parking and waking.
var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
	"runtime.goready", "runtime.ready", "runtime.chansend", "runtime.chanrecv",
	"runtime.selectgo", "runtime.mcall", "runtime.gogo", "runtime.newproc",
	"runtime.goexit", "runtime.casgstatus", "runtime.stopm", "runtime.startm",
	"runtime.wakep", "runtime.runqget", "runtime.runqput", "runtime.notesleep",
	"runtime.notewakeup", "runtime.futex", "runtime.execute", "runtime.goschedImpl",
}

// cpuShares splits a CPU profile's samples by module, and reports the
// scheduler and garbage-collector shares of all samples.
func cpuShares(p *profile) (shares map[string]float64, sched, gc float64, err error) {
	vi, err := p.valueIndex("samples")
	if err != nil {
		return nil, 0, 0, err
	}
	counts := map[string]float64{}
	var total, schedN, gcN float64
	for _, s := range p.samples {
		n := float64(s.values[vi])
		total += n
		mod := flatModule(s.stack)
		counts[mod] += n
		switch {
		case hasFrame(s.stack, gcFrames):
			gcN += n
		case mod == "goruntime" && hasFrame(s.stack, schedFrames):
			schedN += n
		}
	}
	if total == 0 {
		return counts, 0, 0, nil // a run too short for one sample
	}
	for k := range counts {
		counts[k] /= total
	}
	return counts, schedN / total, gcN / total, nil
}

// allocShares splits an allocation profile's allocated bytes by module.
func allocShares(p *profile) (map[string]float64, error) {
	vi, err := p.valueIndex("alloc_space")
	if err != nil {
		return nil, err
	}
	bytesBy := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		n := float64(s.values[vi])
		total += n
		bytesBy[allocModule(s.stack)] += n
	}
	if total == 0 {
		return bytesBy, nil
	}
	for k := range bytesBy {
		bytesBy[k] /= total
	}
	return bytesBy, nil
}
