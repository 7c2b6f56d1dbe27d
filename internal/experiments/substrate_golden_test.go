package experiments

import (
	"os"
	"strings"
	"testing"
)

// snicSubstrateExperiments exercise every SNIC-side process that is not on
// the UDP-echo hot path the breakdown and batch goldens pin: the RDMA
// manager of Figure 5, the barrier and coalescing pushers, the per-queue
// header probe, the Innova AFU stages, the TCP accept/receive path, the
// client-mqueue pumps and retry timers, and the replication pump.
var snicSubstrateExperiments = []string{
	"fig5", "sec51-barrier", "ablate-coalesce", "ablate-qp-share",
	"sec62-innova", "ext-innova-duplex", "fig8a-tcp", "ext-integrated-nic",
	"sec64-faceverify", "replication",
}

// TestSNICSubstrateGolden pins the CSV of every experiment above at scale
// 0.25 and seed 7, so moving a SNIC-side process between the coroutine and
// the task substrate must leave each byte in place. The golden was recorded
// before those processes moved. To regenerate after an intentional semantic
// change (and say so in the commit message):
//
//	LYNX_UPDATE_GOLDENS=1 go test ./internal/experiments/ -run TestSNICSubstrateGolden
func TestSNICSubstrateGolden(t *testing.T) {
	var b strings.Builder
	for _, id := range snicSubstrateExperiments {
		rep, err := Run(id, Config{Seed: 7, Scale: 0.25, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		b.WriteString(rep.CSV())
	}
	got := b.String()
	path := "testdata/snic_substrate_scale025_seed7.csv"
	if os.Getenv("LYNX_UPDATE_GOLDENS") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("SNIC-side experiment CSV drifted from the golden:\n%s", firstDiff(got, string(want)))
	}
}
