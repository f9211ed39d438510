package main

import (
	"encoding/json"
	"os"
	"testing"
)

// gatedWorkloads is the set of workloads BENCHMARK.json lists.
func gatedWorkloads(t *testing.T) map[string]bool {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	gated := map[string]bool{}
	for _, w := range bench.Workloads {
		gated[w.Name] = true
	}
	return gated
}

// TestWorkloadsRun runs every workload, scaled down, through the runtime.
// A workload BENCHMARK.json lists must pass its own output check with no
// failed operation. The others are known to fail on the current runtime
// (see README.md); for them the test checks only that the run ends with
// its failures counted, and logs the first one.
func TestWorkloadsRun(t *testing.T) {
	gated := gatedWorkloads(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.req.tableSlots, w.batch.tableSlots = 2048, 256
			w.rate, w.mbPerSec = w.rate/10, min(w.mbPerSec, 40)
			c := &config{w: &w, seed: 5, seconds: 0.5, mutators: 2}
			r, got := runUntraced(c)
			tl := &r.tally
			if tl.attempted == 0 {
				t.Fatal("no operation attempted")
			}
			if !gated[w.name] {
				if tl.failed != 0 {
					t.Logf("%d of %d operations failed (incorrect %v): %v", tl.failed, tl.attempted, tl.incorrect, tl.firstErr)
				}
				return
			}
			if tl.incorrect || tl.failed != 0 {
				t.Fatalf("%d of %d operations failed (incorrect %v): %v", tl.failed, tl.attempted, tl.incorrect, tl.firstErr)
			}
			// A half-second run may see no pause; everything else it
			// reports must be positive.
			for _, name := range []string{"setup_s", "alloc_mb_s", "cpu_s", "lat_p50_ms", "lat_p99_ms", "peak_rss_mb"} {
				if v := got[name]; v <= 0 {
					t.Errorf("%s = %v, want a positive value", name, v)
				}
			}
		})
	}
}
