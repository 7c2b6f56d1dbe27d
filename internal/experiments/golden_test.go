package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// The testdata golden files were recorded from the PR 6 build — the last
// release before the scheduler's run-to-completion Task substrate took over
// the hot path (UDP receive, MQ-manager sweeps, the RDMA engine loop). These
// tests pin the substrate port: any drift in virtual-time behaviour shows up
// as a byte diff in the CSV report or the Chrome trace timeline.
//
// The trace timeline was regenerated once on purpose: when the unbatched
// receive path was folded into the one dispatcher, an unbatched request's
// Dispatch event moved from its write's completion to its slot reservation
// (the order the batched dispatcher always had). The CSVs did not change.
// The replication-identity event trace (replication_golden_test.go) and the
// SNIC-substrate CSV (sec62-innova's BlueField rate and the replication
// failover time) were regenerated with it, for the same reason.
//
// If an intentional semantic change lands, regenerate with:
//
//	go run ./cmd/lynxbench -exp breakdown -scale 0.25 -seed 7 -csv \
//	    -trace-json internal/experiments/testdata/pr6_breakdown_scale025_seed7_trace.json \
//	    > internal/experiments/testdata/pr6_breakdown_scale025_seed7.csv
//	go run ./cmd/lynxbench -exp batch -scale 0.25 -seed 7 -csv \
//	    > internal/experiments/testdata/pr6_batch_scale025_seed7.csv
//
// and say so in the commit message.
func TestBreakdownMatchesPR6Golden(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	rep, err := Run("breakdown", Config{Seed: 7, Scale: 0.25, Workers: 1, TraceJSON: tracePath})
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile("testdata/pr6_breakdown_scale025_seed7.csv")
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.CSV(); got != string(wantCSV) {
		t.Errorf("breakdown CSV drifted from the PR 6 golden:\n got %d bytes\nwant %d bytes\n%s",
			len(got), len(wantCSV), firstDiff(got, string(wantCSV)))
	}
	gotTrace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	wantTrace, err := os.ReadFile("testdata/pr6_breakdown_scale025_seed7_trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(gotTrace) != string(wantTrace) {
		t.Errorf("breakdown trace timeline drifted from the PR 6 golden: got %d bytes, want %d\n%s",
			len(gotTrace), len(wantTrace), firstDiff(string(gotTrace), string(wantTrace)))
	}
}

func TestBatchMatchesPR6Golden(t *testing.T) {
	rep, err := Run("batch", Config{Seed: 7, Scale: 0.25, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile("testdata/pr6_batch_scale025_seed7.csv")
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.CSV(); got != string(wantCSV) {
		t.Errorf("batch CSV drifted from the PR 6 golden:\n got %d bytes\nwant %d bytes\n%s",
			len(got), len(wantCSV), firstDiff(got, string(wantCSV)))
	}
}

// firstDiff renders the first divergent line pair for a readable failure.
func firstDiff(got, want string) string {
	g, w := splitLines(got), splitLines(want)
	n := len(g)
	if len(w) < n {
		n = len(w)
	}
	for i := 0; i < n; i++ {
		if g[i] != w[i] {
			return "first diff at line " + itoa(i+1) + ":\n got: " + g[i] + "\nwant: " + w[i]
		}
	}
	return "files differ only in length"
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
