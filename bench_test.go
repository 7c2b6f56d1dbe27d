// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per experiment; see DESIGN.md's experiment index), plus
// micro-benchmarks of the core substrates.
//
// Experiment benchmarks execute the full simulated testbed once per
// iteration and report the headline measurement as a custom metric, so
//
//	go test -bench=. -benchmem
//
// regenerates the entire evaluation. The text tables themselves come from
// `go run ./cmd/lynxbench -exp all`.
package lynx_test

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"lynx/internal/apps/lbp"
	"lynx/internal/apps/lenet"
	"lynx/internal/experiments"
)

// runExperiment executes one experiment per b.N iteration, reporting the
// wall-clock cost of a full regeneration.
func runExperiment(b *testing.B, id string, metricRow, metricCol, metricName string) {
	b.Helper()
	var last *experiments.Report
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id, experiments.Config{Seed: uint64(i + 1), Scale: 0.3})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	if metricRow != "" && last != nil {
		if cell, ok := last.Cell(metricRow, metricCol); ok {
			if v, ok := parseCell(cell); ok {
				b.ReportMetric(v, metricName)
			}
		}
	}
}

// parseCell extracts a leading float from a report cell ("3.5K (2.5x)" ->
// 3500).
func parseCell(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	mult := 1.0
	s = strings.TrimSuffix(s, "x")
	if strings.HasSuffix(s, "K") {
		mult = 1000
		s = s[:len(s)-1]
	}
	s = strings.TrimSuffix(s, "µs")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return v * mult, true
}

// --- One benchmark per paper table/figure (see DESIGN.md §3) ---

func BenchmarkSec3InvocationOverhead(b *testing.B) {
	runExperiment(b, "sec3-invocation", "", "", "")
}

func BenchmarkSec3NoisyNeighbor(b *testing.B) {
	runExperiment(b, "sec3-noisy", "", "", "")
}

func BenchmarkFig5TransferMechanisms(b *testing.B) {
	runExperiment(b, "fig5", "", "", "")
}

func BenchmarkFig6Throughput(b *testing.B) {
	runExperiment(b, "fig6", "", "", "")
}

func BenchmarkFig7Latency(b *testing.B) {
	runExperiment(b, "fig7", "", "", "")
}

func BenchmarkSec62Innova(b *testing.B) {
	runExperiment(b, "sec62-innova", "Innova FPGA (NICA AFU)", "pkt/s", "innova-pkt/s")
}

func BenchmarkSec62Isolation(b *testing.B) {
	runExperiment(b, "sec62-isolation", "", "", "")
}

func BenchmarkSec62VCA(b *testing.B) {
	runExperiment(b, "sec62-vca", "", "", "")
}

func BenchmarkFig8aLeNet(b *testing.B) {
	runExperiment(b, "fig8a", "Lynx BlueField", "req/s", "lenet-req/s")
}

func BenchmarkFig8aTCP(b *testing.B) {
	runExperiment(b, "fig8a-tcp", "Lynx BlueField", "req/s", "lenet-tcp-req/s")
}

func BenchmarkFig8bScaleout(b *testing.B) {
	runExperiment(b, "fig8b", "4 local + 8 remote", "req/s", "12gpu-req/s")
}

func BenchmarkFig8cProjection(b *testing.B) {
	runExperiment(b, "fig8c", "", "", "")
}

func BenchmarkFig9Memcached(b *testing.B) {
	runExperiment(b, "fig9", "", "", "")
}

func BenchmarkSec64FaceVerify(b *testing.B) {
	runExperiment(b, "sec64-faceverify", "Lynx BlueField", "req/s", "fv-req/s")
}

func BenchmarkSec511VMA(b *testing.B) {
	runExperiment(b, "sec511-vma", "", "", "")
}

func BenchmarkSec51Barrier(b *testing.B) {
	runExperiment(b, "sec51-barrier", "", "", "")
}

func BenchmarkBreakdown(b *testing.B) {
	runExperiment(b, "breakdown", "end-to-end", "mean", "e2e-µs")
}

// BenchmarkTraceOverhead runs the same BlueField echo deployment with the
// observability plane fully enabled (span table + event ring + samplers)
// and fully disabled, so the two sub-benchmark wall times quantify the real
// (host CPU) cost of tracing. The simulated virtual-time results are
// identical by construction — asserted by TestBreakdownDisabledIsFree.
func BenchmarkTraceOverhead(b *testing.B) {
	run := func(b *testing.B, traced bool) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := experiments.BreakdownRun(experiments.Config{Seed: uint64(i + 1), Scale: 0.3}, traced)
			if res.Received == 0 {
				b.Fatal("no responses measured")
			}
		}
	}
	b.Run("untraced", func(b *testing.B) { run(b, false) })
	b.Run("traced", func(b *testing.B) { run(b, true) })
}

// --- Ablations (design choices called out in DESIGN.md) ---

func BenchmarkAblateCoalesce(b *testing.B) {
	runExperiment(b, "ablate-coalesce", "", "", "")
}

func BenchmarkAblateDispatch(b *testing.B) {
	runExperiment(b, "ablate-dispatch", "", "", "")
}

func BenchmarkAblatePoll(b *testing.B) {
	runExperiment(b, "ablate-poll", "", "", "")
}

func BenchmarkAblateQPShare(b *testing.B) {
	runExperiment(b, "ablate-qp-share", "", "", "")
}

// --- Macro benchmark: the whole evaluation, sequential vs parallel ---

// BenchmarkFullEval regenerates a scaled-down copy of every experiment per
// iteration — the end-to-end number that the sweep worker pool and the DES
// hot-path work target. The sequential/parallel pair quantifies the sweep
// scheduler's speedup on this machine (they are identical by construction on
// a single-core runner).
func BenchmarkFullEval(b *testing.B) {
	run := func(b *testing.B, workers int) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			for _, id := range experiments.List() {
				if _, err := experiments.Run(id, experiments.Config{
					Seed: uint64(i + 1), Scale: 0.1, Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, experiments.AutoWorkers) })
}

// --- Substrate micro-benchmarks (real CPU work, not simulation) ---

func BenchmarkLeNetInference(b *testing.B) {
	net := lenet.New(1)
	img := lenet.RenderDigit(7, 0, 0)
	b.ReportAllocs()
	b.ResetTimer() // building the weights allocates; the forward pass must not
	for i := 0; i < b.N; i++ {
		if _, err := net.Infer(img); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLBPCompute(b *testing.B) {
	img := lbp.SynthFace(7, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lbp.Compute(img); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorEventThroughput(b *testing.B) {
	// Measures raw simulator overhead: events executed per second.
	r, err := experiments.Run("sec3-invocation", experiments.Config{Seed: 1, Scale: 0.05})
	if err != nil || len(r.Rows) == 0 {
		b.Fatal("warmup failed")
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run("sec3-invocation", experiments.Config{Seed: 1, Scale: 0.05}); err != nil {
			b.Fatal(err)
		}
	}
	_ = start
}

func BenchmarkExtPipeline(b *testing.B) {
	runExperiment(b, "ext-pipeline", "Lynx pipeline (GPU0 -> GPU1)", "req/s", "pipeline-req/s")
}

func BenchmarkExtIntegratedNIC(b *testing.B) {
	runExperiment(b, "ext-integrated-nic", "Lynx-managed (remote mqueues)", "req/s", "nicaccel-req/s")
}

func BenchmarkExtLatencyCurve(b *testing.B) {
	runExperiment(b, "ext-latency-curve", "", "", "")
}

func BenchmarkExtInnovaDuplex(b *testing.B) {
	runExperiment(b, "ext-innova-duplex", "Innova full duplex (AFU rx+tx)", "echo/s", "fpga-echo/s")
}
