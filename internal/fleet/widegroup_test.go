package fleet

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sched"
)

// TestWideGroupGolden pins ILP dispatch at group sizes of nine and ten
// members under preemptive SLO traffic, on a homogeneous roster with
// aging off and on a mixed one with aging on: the summary, the eviction
// trace and every job record. The golden was captured while these
// sizes still ran on the untabled matcher path, so it locks the
// class-count tables to the direct computation. Regenerate with
//
//	go test ./internal/fleet -run WideGroupGolden -update
//
// only when wide-group dispatch is meant to change.
func TestWideGroupGolden(t *testing.T) {
	small := testPipeline(t)
	tiny := pipelineFor(t, tinyConfig())
	rosters := []struct {
		devices []DeviceSpec
		aging   float64
	}{
		{homo(small, 2), 0},
		{[]DeviceSpec{{Pipe: small, Count: 1}, {Pipe: tiny, Count: 1}}, 1},
	}
	arr, err := ArrivalConfig{
		Kind: Poisson, Jobs: 80, Rate: 20,
		LatencyFrac: 0.2, Deadline: 40_000, Seed: 0x9A10,
	}.Generate(testNames())
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for _, nc := range []int{9, 10} {
		for _, r := range rosters {
			f, err := New(Config{
				Devices: r.devices, NC: nc, Policy: sched.ILPSMRA, Engine: Modeled,
				Aging: r.aging, SLO: SLOConfig{Enabled: true, Preempt: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Run(arr)
			if err != nil {
				t.Fatal(err)
			}
			if res.ILPGroups == 0 {
				t.Fatalf("nc=%d aging=%g: no ILP groups; the case no longer exercises the matcher", nc, r.aging)
			}
			fmt.Fprintf(&out, "== nc=%d aging=%g\n%s%s", nc, r.aging, res.Summary(), res.EvictionTrace())
			if err := res.WriteJobsCSV(&out); err != nil {
				t.Fatal(err)
			}
		}
	}
	compareGolden(t, "modeled_widegroup.golden", out.String())
}
