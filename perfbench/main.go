// Command perfbench is the repository's benchmark. One invocation runs one
// workload of the Lynx simulation, repeatedly, in this process, for about the
// requested number of host seconds, checks every reply, and prints every
// metric by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	go build -o perfbench . && ./perfbench --workload echo-bf240 --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced repetitions; their host
// times are scaled by a reference computation timed around each repetition
// (calibrate.go). --trace 1 runs untraced repetitions for half the time, then
// traced ones (host-time spans around the calls the benchmark makes into each
// layer, plus a CPU and an allocation profile split by package) and reports
// the per-layer metrics.
// The spans and both profiles are written under --out.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

func main() {
	// Allocation sampling is armed only around traced repetitions, so the
	// allocation profile covers exactly those.
	runtime.MemProfileRate = 0
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: echo-bf240, lenet-k80 or kv-rack3")
	seed := fs.Uint64("seed", 1, "seed for the generated requests")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for (at least minReps repetitions run)")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	out := fs.String("out", ".bench_build/perfbench-out", "directory for the traced run's spans and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() != 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of echo-bf240, lenet-k80, kv-rack3) and --trace 0|1\n")
		return 2
	}
	res, err := measure(w, options{seed: *seed, seconds: *seconds, traced: *traced == 1, out: *out})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res.print(stdout)
	if !res.Correct {
		return 1
	}
	return 0
}

// options parameterize one measurement.
type options struct {
	seed    uint64
	seconds float64
	traced  bool
	out     string // where a traced run writes spans and profiles ("" for nowhere)
	// corrupt, when set, mutates every reply before it is checked (tests).
	corrupt func([]byte)
}

// minReps is the fewest untraced repetitions a measurement makes, so every
// host metric is a median of at least three.
const minReps = 3

// setupsPerRep is how many times each repetition builds its deployment; the
// extra builds are closed unused, so setup_s is a median of several.
const setupsPerRep = 5

// repResult is one repetition: set-up, a fixed simulated window, Close.
type repResult struct {
	setupS  float64 // median of setupsPerRep builds
	hostS   float64 // simulated window (warm-up and drain included) plus Close
	allocB  uint64  // heap bytes allocated, set-up through Close
	mallocs uint64
	liveB   uint64  // live heap after a forced GC at the end of the window
	gcs     uint32  // GC cycles during the window
	refS    float64 // mean host time of the reference computations run just before and after
	sim     simOutcome
}

// simOutcome is everything the simulation computed in one repetition. It is
// deterministic per seed: every repetition of one seed must produce an
// identical value.
type simOutcome struct {
	layers   layerCounts
	issued   uint64
	failed   uint64
	lost     uint64
	retries  uint64
	received uint64
	inputs   uint64 // hash of every generated request
	latHash  uint64 // hash of every measured latency, in reply order
	rps      float64
	p50us    float64
	p99us    float64
	samples  int
	getP99us float64
	setP99us float64
}

// rep runs one repetition.
func rep(w *workloadDef, o options, tr *tracer) (*repResult, error) {
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	setups := make([]float64, 0, setupsPerRep)
	var d *deployment
	for i := 0; i < setupsPerRep; i++ {
		runtime.GC() // no collection of earlier garbage inside the timed build
		sp := tr.begin()
		t0 := time.Now()
		dep, err := w.build(o.seed, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		tr.end("setup", "rep", sp)
		if i < setupsPerRep-1 {
			// Let the spawned processes reach their first blocking point:
			// Shutdown unwinds a process only from there, and one that never
			// ran would stay parked for the life of this process.
			dep.sim.RunUntil(dep.sim.Now())
			dep.sim.Shutdown()
			continue
		}
		d = dep
	}

	sp := tr.begin()
	t1 := time.Now()
	s := d.sim
	start := s.Now().Add(w.warmup)
	end := start.Add(w.window)
	l := newLoad(d.svc, o.seed, start, end)
	l.corrupt = o.corrupt
	d.start(l)
	s.RunUntil(end)
	s.RunUntilCond(end.Add(w.drain), time.Millisecond, l.drained)
	host := time.Since(t1)
	tr.end("sim.run", "rep", sp)
	l.finish()
	layers := d.parts.counts()

	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)

	sp = tr.begin()
	t2 := time.Now()
	s.Shutdown()
	host += time.Since(t2)
	tr.end("close", "rep", sp)
	var m3 runtime.MemStats
	runtime.ReadMemStats(&m3)

	r := &repResult{
		setupS:  median(setups),
		hostS:   host.Seconds(),
		allocB:  (m1.TotalAlloc - m0.TotalAlloc) + (m3.TotalAlloc - m2.TotalAlloc),
		mallocs: (m1.Mallocs - m0.Mallocs) + (m3.Mallocs - m2.Mallocs),
		liveB:   m2.HeapAlloc,
		gcs:     m1.NumGC - m0.NumGC,
	}
	lh := fnv.New64a()
	var b [8]byte
	for _, v := range l.lat {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		lh.Write(b[:])
	}
	r.sim = simOutcome{
		layers: layers, issued: l.issued, failed: l.failed(), lost: l.lost, retries: l.retries,
		received: l.received, inputs: l.inputHash.Sum64(), latHash: lh.Sum64(),
		rps:     float64(l.received) / w.window.Seconds(),
		p50us:   quantileUs(l.lat, 0.50),
		p99us:   quantileUs(l.lat, 0.99),
		samples: len(l.lat),
		// Per-kind tails exist only where requests have kinds (kv-rack3).
		getP99us: quantileUs(l.getLat, 0.99),
		setP99us: quantileUs(l.setLat, 0.99),
	}
	return r, nil
}

// quantileUs is the nearest-rank q-quantile of ns samples, in µs.
func quantileUs[T int64 | float64](ns []T, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]T(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)]) / 1e3
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	workload string
	notes    []string
	order    []string
}

func (r *result) set(name string, v float64) {
	def, ok := metricDefs[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.Metrics[name] = metric{Value: v, Unit: def.unit}
	r.order = append(r.order, name)
}

// print writes the human-readable table, then the JSON line.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s: correct=%v attempted=%d failed=%d\n", r.workload, r.Correct, r.Attempted, r.Failed)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", name, m.Value, m.Unit)
	}
	buf, _ := json.Marshal(r) // a map of finite floats always marshals
	fmt.Fprintf(w, "%s\n", buf)
}

// measure runs repetitions for about o.seconds and reduces them to the
// end-to-end metrics (untraced) or the per-layer metrics (traced).
func measure(w *workloadDef, o options) (*result, error) {
	if w.name == "lenet-k80" {
		// The reference classes are computed here, before any timed section.
		if _, err := lenetReference(); err != nil {
			return nil, err
		}
	}
	begin := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	plainBudget := budget
	if o.traced {
		plainBudget = budget / 2
	}
	off := &tracer{}
	var plain []*repResult
	refBefore := reference().Seconds()
	for len(plain) < minReps || (time.Since(begin) < plainBudget && len(plain) < 100) {
		r, err := rep(w, o, off)
		if err != nil {
			return nil, err
		}
		refAfter := reference().Seconds()
		r.refS = (refBefore + refAfter) / 2
		refBefore = refAfter
		plain = append(plain, r)
	}

	res := &result{Correct: true, Metrics: map[string]metric{}, workload: w.name}
	all := plain
	var traced []*repResult
	var tr *tracer
	var cpuProf, allocProf []byte
	if o.traced {
		tr = &tracer{on: true, t0: time.Now()}
		var cpu bytes.Buffer
		prevRate := runtime.MemProfileRate
		runtime.MemProfileRate = 512 * 1024
		if err := pprof.StartCPUProfile(&cpu); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		for len(traced) == 0 || (time.Since(begin) < budget && len(traced) < 100) {
			r, err := rep(w, o, tr)
			if err != nil {
				pprof.StopCPUProfile()
				return nil, err
			}
			traced = append(traced, r)
		}
		pprof.StopCPUProfile()
		runtime.GC() // publish the allocation samples of the traced repetitions
		var alloc bytes.Buffer
		if err := pprof.Lookup("allocs").WriteTo(&alloc, 0); err != nil {
			return nil, fmt.Errorf("allocation profile: %w", err)
		}
		runtime.MemProfileRate = prevRate
		cpuProf, allocProf = cpu.Bytes(), alloc.Bytes()
		all = append(append([]*repResult(nil), plain...), traced...)
	}

	// Determinism guard: every repetition of one seed must compute the same.
	ref := all[0].sim
	for i, r := range all[1:] {
		if r.sim != ref {
			res.Correct = false
			res.notes = append(res.notes, fmt.Sprintf("repetition %d computed a different outcome than repetition 0 at the same seed", i+1))
		}
	}
	for _, r := range all {
		res.Attempted += r.sim.issued
		res.Failed += r.sim.failed
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	res.notes = append(res.notes, fmt.Sprintf("%d untraced + %d traced repetitions of %v simulated (+%v warm-up); %d latency samples per repetition",
		len(plain), len(traced), w.window, w.warmup, ref.samples))
	res.notes = append(res.notes, fmt.Sprintf("untraced host time %.6g s as measured, reference computation %.6g s (medians)",
		median(pick(plain, func(r *repResult) float64 { return r.hostS })), median(pick(plain, func(r *repResult) float64 { return r.refS }))))

	if !o.traced {
		endToEnd(res, plain)
		return res, nil
	}
	if err := perLayer(res, plain, traced, tr, cpuProf, allocProf); err != nil {
		return nil, err
	}
	if o.out != "" {
		if err := writeArtifacts(o.out, fmt.Sprintf("%s-seed%d", w.name, o.seed), tr, cpuProf, allocProf); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// pick returns f of every repetition.
func pick(rs []*repResult, f func(*repResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// atRefSpeed scales a host time measured beside reference computations that
// took refS to a machine on which the reference computation takes
// refNominalS. The drift of the machine's speed cancels out of the ratio; the
// program's own speed does not.
func atRefSpeed(s, refS float64) float64 {
	return s / refS * refNominalS
}

// scaledHostS is the median host time of the untraced repetitions at reference speed.
func scaledHostS(plain []*repResult) float64 {
	return median(pick(plain, func(r *repResult) float64 { return atRefSpeed(r.hostS, r.refS) }))
}

func endToEnd(res *result, plain []*repResult) {
	o := plain[0].sim
	res.set("host_s", scaledHostS(plain))
	res.set("setup_s", median(pick(plain, func(r *repResult) float64 { return atRefSpeed(r.setupS, r.refS) })))
	res.set("alloc_mb", median(pick(plain, func(r *repResult) float64 { return float64(r.allocB) / 1e6 })))
	res.set("live_heap_mb", median(pick(plain, func(r *repResult) float64 { return float64(r.liveB) / 1e6 })))
	res.set("sim_rps", o.rps)
	res.set("sim_p50_us", o.p50us)
	res.set("sim_p99_us", o.p99us)
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perLayer(res *result, plain, traced []*repResult, tr *tracer, cpuProf, allocProf []byte) error {
	o := plain[0].sim
	c := o.layers
	req := float64(o.issued)
	elapsed := float64(c.Elapsed)
	plainWall := median(pick(plain, func(r *repResult) float64 { return r.hostS }))
	tracedWall := median(pick(traced, func(r *repResult) float64 { return r.hostS }))

	cp, err := parseProfile(cpuProf)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	hostShare, sched, gc, err := cpuShares(cp)
	if err != nil {
		return err
	}
	ap, err := parseProfile(allocProf)
	if err != nil {
		return fmt.Errorf("allocation profile: %w", err)
	}
	allocShare, err := allocShares(ap)
	if err != nil {
		return err
	}

	res.set("sim.events", float64(c.Events))
	res.set("sim.ns_per_event", ratio(scaledHostS(plain)*1e9, float64(c.Events)))
	res.set("goruntime.sched_share", sched)
	res.set("gc.share", gc)
	res.set("gc.cycles", median(pick(plain, func(r *repResult) float64 { return float64(r.gcs) })))
	res.set("alloc.bytes_per_req", ratio(median(pick(plain, func(r *repResult) float64 { return float64(r.allocB) })), req))
	res.set("alloc.objs_per_req", ratio(median(pick(plain, func(r *repResult) float64 { return float64(r.mallocs) })), req))

	res.set("core.exec_calls_per_req", ratio(float64(c.ExecCalls), req))
	res.set("core.dropped", float64(c.Dropped))
	res.set("core.retries", float64(c.CoreRetries))
	res.set("core.snic_cpu_util", ratio(float64(c.CPUBusy), elapsed*float64(c.Cores)))
	res.set("rdma.ops_per_req", ratio(float64(c.RDMAOps), req))
	res.set("rdma.retry_ratio", ratio(float64(c.RDMARetried), float64(c.RDMAOps)))
	pushed := float64(c.Received + c.ReplRecords)
	refused := float64(c.Overflow + c.ReplBacklogged)
	res.set("mqueue.pushed", pushed)
	res.set("mqueue.full_ratio", ratio(refused, pushed+refused))
	res.set("netstack.rx_dropped", float64(c.RxDropped))
	res.set("fabric.transfers_per_req", ratio(float64(c.Transfers), req))
	res.set("fabric.pcie_util", ratio(float64(c.PCIeBusy), elapsed))
	res.set("accel.gpu_busy", ratio(float64(c.GPUBusy), elapsed*float64(c.Resident)))
	res.set("accel.recv_wait_share", ratio(float64(c.RecvWait), elapsed*float64(c.TBs)))

	classify := tr.durations("lenet.classify")
	res.set("lenet.calls", float64(c.LenetCalls))
	res.set("lenet.classify_us_p50", quantileUs(classify, 0.50))
	res.set("lenet.classify_us_p99", quantileUs(classify, 0.99))
	res.set("lenet.repeat_share", ratio(float64(c.LenetCalls-c.LenetDistinct), float64(c.LenetCalls)))

	res.set("repl.records_per_write", ratio(float64(c.ReplRecords), float64(c.ReplWrites)))
	res.set("repl.backlog_ratio", ratio(float64(c.ReplBacklogged), float64(c.ReplRecords)))
	res.set("repl.held", float64(c.ReplHeld))
	res.set("repl.peer_ack_p99_us", float64(c.PeerAckP99)/1e3)
	res.set("trace.spans_begun", float64(c.SpansBegun))
	res.set("trace.evict_ratio", ratio(float64(c.SpansEvicted), float64(c.SpansBegun)))

	res.set("workload.sent", float64(o.issued))
	res.set("workload.lost", float64(o.lost))
	res.set("workload.retries", float64(o.retries))
	res.set("sim_get_p99_us", o.getP99us)
	res.set("sim_set_p99_us", o.setP99us)
	res.set("sim_p99_samples", float64(o.samples))
	res.set("fail_frac", ratio(float64(o.failed), req))

	// Median per build; a phase a workload does not separate reads 0.
	for _, phase := range []string{"build", "register", "launch", "start", "app_init"} {
		res.set("setup."+phase+"_s", median(tr.durations("setup."+phase))/1e9)
	}
	res.set("bench.trace_overhead", tracedWall/plainWall-1)
	res.set("bench.host_wall_s", plainWall)
	res.set("bench.ref_s", median(pick(plain, func(r *repResult) float64 { return r.refS })))
	covered := 0.0
	for _, m := range modules {
		res.set(m+".host_share", hostShare[m])
		res.set(m+".alloc_share", allocShare[m])
		if m != "other" {
			covered += hostShare[m]
		}
	}
	res.set("bench.profile_coverage", covered)
	for m, share := range hostShare {
		if _, named := metricDefs[m+".host_share"]; !named {
			res.notes = append(res.notes, fmt.Sprintf("unlisted module %s holds host share %.4f", m, share))
		}
	}
	return nil
}

// writeArtifacts stores the traced run's spans and profiles under dir.
func writeArtifacts(dir, stem string, tr *tracer, cpuProf, allocProf []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tr.write(filepath.Join(dir, stem+".spans.json")); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+".cpu.pprof"), cpuProf, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, stem+".alloc.pprof"), allocProf, 0o644)
}
