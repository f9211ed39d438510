package fastbench

import (
	"runtime"
	"testing"

	"lxr/internal/vm"
)

// countMallocs returns the number of Go heap allocations f performs
// (plus whatever the plan's parked background goroutines do, which is
// why callers allow a small slack rather than demanding exactly zero).
func countMallocs(f func()) uint64 {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// mallocSlack absorbs background-goroutine noise (timer wheels, the
// plans' parked controllers). The loops run 50k+ ops, so a per-op
// allocation would exceed it by orders of magnitude.
const mallocSlack = 200

// The allocation fast path must not allocate Go memory: it is a
// mutator-local bump (plus, past the 16 KB publish grain, two atomic
// adds), and any hidden allocation would both skew the microbenchmarks
// and throttle every workload.
func TestAllocFastPathIsGoAllocationFree(t *testing.T) {
	for _, c := range Collectors {
		t.Run(c, func(t *testing.T) {
			p, _ := newPlan(c, 256<<20, false)
			v := vm.New(p, 0)
			defer v.Shutdown()
			m := v.RegisterMutator(1)
			defer m.Deregister()

			const ops = 50_000 // 1.6 MB of 32 B objects: far below any trigger
			loop := func() {
				for i := 0; i < ops; i++ {
					m.Alloc(0, 1, smallPayload)
				}
			}
			loop()        // warmup: lazy buffer growth, arena paging
			m.RequestGC() // reset epoch budgets outside the measured window
			if n := countMallocs(loop); n > mallocSlack {
				t.Fatalf("%s: %d Go allocations over %d object allocations", c, n, ops)
			}
		})
	}
}

// The barrier fast path (one metadata load + the store) must not
// allocate Go memory either.
func TestStoreFastPathIsGoAllocationFree(t *testing.T) {
	for _, c := range Collectors {
		t.Run(c, func(t *testing.T) {
			p, _ := newPlan(c, 64<<20, false)
			v := vm.New(p, 0)
			defer v.Shutdown()
			m := v.RegisterMutator(1)
			defer m.Deregister()

			const slots = 64
			src := m.Alloc(0, slots, 0)
			val := m.Alloc(0, 0, 16)
			const ops = 200_000
			loop := func() {
				for i := 0; i < ops; i++ {
					m.Store(src, i&(slots-1), val)
				}
			}
			loop() // warmup
			if n := countMallocs(loop); n > mallocSlack {
				t.Fatalf("%s: %d Go allocations over %d stores", c, n, ops)
			}
		})
	}
}

// The evac/copy row reports one positive per-object sample per requested
// sample, under the Parallel collector.
func TestEvacCopyRowSamples(t *testing.T) {
	r := runEvacCopy(Options{HeapBytes: 64 << 20, Samples: 2})
	if r.Collector != "Parallel" || r.Bench != "evac/copy" || r.Ops != evacNodes {
		t.Fatalf("row %s %s with %d ops", r.Collector, r.Bench, r.Ops)
	}
	if len(r.SamplesNS) != 2 || r.MinNS <= 0 {
		t.Fatalf("samples %v", r.SamplesNS)
	}
}
