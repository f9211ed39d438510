package main

import (
	"slices"
	"strings"
	"time"

	"lxr"
	"lxr/internal/gcwork"
	"lxr/internal/policy"
	"lxr/internal/trace"
)

// Per-layer attribution. A traced run times a sample of the benchmark's
// own calls into the runtime (callTimer), attaches the runtime's event
// tracer for the pause-phase spans, and differences the runtime's
// statistics across the measured phase (snapshot).

// sampleEvery is how many small allocations, stores and loads pass per
// timed one. Medium and large allocations and requests are all timed.
const sampleEvery = 16

// Object sizes that separate the allocator's paths: objects above a line
// are medium (they may span lines), objects above half a block go to the
// large object space.
const (
	lineBytes  = 256
	largeBytes = 16 << 10
)

// callTimer times one mutator's calls into the runtime during a traced
// run's measured phase, and records each timed call as a span on the
// mutator's lane of the event tracer.
type callTimer struct {
	on    *bool // the measured phase is running (flipped only at gates)
	tr    *trace.Tracer
	stats *lxr.Stats
	names [numCalls]trace.NameID
	n     uint32

	ns     [numCalls][]int64
	stalls int64 // allocations that spanned a pause
	stores int64 // Store calls issued
}

// Timed call classes.
const (
	callAlloc = iota // small allocation
	callMedium
	callLarge
	callStore
	callLoad
	callRequest // one request or batch step
	numCalls
)

var callNames = [numCalls]string{"bench:alloc", "bench:alloc-medium", "bench:alloc-large", "bench:store", "bench:load", "bench:op"}

func newCallTimer(on *bool, tr *trace.Tracer, stats *lxr.Stats) *callTimer {
	t := &callTimer{on: on, tr: tr, stats: stats}
	for i, s := range callNames {
		t.names[i] = tr.Intern(s)
	}
	return t
}

func (t *callTimer) record(m *lxr.Mutator, c int, t0 time.Time, d time.Duration, arg uint64) {
	t.ns[c] = append(t.ns[c], int64(d))
	t.tr.Span(trace.MutShard(uint64(m.ID)), t.names[c], t0, d, arg, 0)
}

// sample reports whether this small call is one of the timed ones.
func (t *callTimer) sample() bool {
	t.n++
	return t.n%sampleEvery == 0
}

func (t *callTimer) alloc(m *lxr.Mutator, typeID uint8, refs, payload int) lxr.Ref {
	if !*t.on {
		return m.Alloc(typeID, refs, payload)
	}
	size := headerBytes + 8*refs + payload
	c := callAlloc
	switch {
	case size > largeBytes:
		c = callLarge
	case size > lineBytes:
		c = callMedium
	}
	timed := c != callAlloc || t.sample()
	p0 := t.stats.TotalPause()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	o := m.Alloc(typeID, refs, payload)
	if timed {
		t.record(m, c, t0, time.Since(t0), uint64(size))
	}
	if t.stats.TotalPause() != p0 {
		t.stalls++
	}
	return o
}

func (t *callTimer) store(m *lxr.Mutator, src lxr.Ref, i int, val lxr.Ref) {
	if !*t.on {
		m.Store(src, i, val)
		return
	}
	t.stores++
	if !t.sample() {
		m.Store(src, i, val)
		return
	}
	t0 := time.Now()
	m.Store(src, i, val)
	t.record(m, callStore, t0, time.Since(t0), 0)
}

func (t *callTimer) load(m *lxr.Mutator, src lxr.Ref, i int) lxr.Ref {
	if !*t.on || !t.sample() {
		return m.Load(src, i)
	}
	t0 := time.Now()
	r := m.Load(src, i)
	t.record(m, callLoad, t0, time.Since(t0), 0)
	return r
}

// request records one measured request or batch step.
func (t *callTimer) request(m *lxr.Mutator, start, end time.Time) {
	t.record(m, callRequest, start, end.Sub(start), 0)
}

// planTelemetry is what both collectors' plans expose beyond vm.Plan.
type planTelemetry interface {
	GCWorkerStats() []gcwork.WorkerStat
	GCLoanStats() (loans, items int64)
	PacingTrace() *policy.Trace
}

// snapshot is the runtime's cumulative statistics at one instant.
type snapshot struct {
	at          time.Time
	cpu         time.Duration
	pauses      int
	counters    map[string]int64
	gcWork      time.Duration
	concWork    time.Duration
	loans       int64
	loanItems   int64
	workerItems []int64
}

func takeSnapshot(rt *lxr.Runtime) snapshot {
	s := snapshot{
		at:       time.Now(),
		cpu:      cpuTime(),
		pauses:   rt.Stats.PauseCount(),
		counters: rt.Stats.Counters(),
		gcWork:   rt.Stats.GCWork(),
		concWork: rt.Stats.ConcurrentWork(),
	}
	if pt, ok := rt.Plan.(planTelemetry); ok {
		s.loans, s.loanItems = pt.GCLoanStats()
		for _, w := range pt.GCWorkerStats() {
			s.workerItems = append(s.workerItems, w.PauseItems)
		}
	}
	return s
}

// phaseStats is the measured phase of one session: its bounding
// snapshots and the pauses that started inside it.
type phaseStats struct {
	rt         *lxr.Runtime
	created    time.Time // just before the runtime was constructed
	start, end snapshot
	pauses     []lxr.Pause
}

func newPhaseStats(rt *lxr.Runtime, created time.Time, start, end snapshot) *phaseStats {
	all := rt.Stats.Pauses()
	return &phaseStats{rt: rt, created: created, start: start, end: end, pauses: all[start.pauses:end.pauses]}
}

func (w *phaseStats) wall() time.Duration { return w.end.at.Sub(w.start.at) }

func (w *phaseStats) counter(name string) float64 {
	return float64(w.end.counters[name] - w.start.counters[name])
}

// pauseNs returns the durations (or TTSPs) of the phase's pauses whose
// kind satisfies keep.
func (w *phaseStats) pauseNs(keep func(kind string) bool, ttsp bool) []int64 {
	var out []int64
	for _, p := range w.pauses {
		if keep(p.Kind) {
			d := p.Dur
			if ttsp {
				d = p.TTSP
			}
			out = append(out, int64(d))
		}
	}
	slices.Sort(out)
	return out
}

func anyKind(string) bool { return true }

// Trigger kinds of the two collectors' pacers, reported by name.
var triggerKinds = []string{
	"rc-increments", "rc-survival", "satb-clean", "satb-wastage", // LXR
	"young-target", "young-reserve", "ihop", // G1
	"half-budget", "heap-full", // Parallel, Immix
}

// triggers counts the pacer's trigger decisions in the phase by kind.
func (w *phaseStats) triggers() map[string]float64 {
	out := map[string]float64{}
	pt, ok := w.rt.Plan.(planTelemetry)
	if !ok {
		return out
	}
	lo := float64(w.start.at.Sub(w.created)) / 1e6
	hi := float64(w.end.at.Sub(w.created)) / 1e6
	for _, d := range pt.PacingTrace().Decisions {
		if d.AtMS >= lo && d.AtMS < hi {
			out[d.Kind] += float64(1 + d.Repeats)
		}
	}
	return out
}

// LXR pause-pipeline phases the runtime's tracer records, with the
// names its exporter gives them.
var lxrPhases = []struct {
	id   trace.NameID
	name string
}{
	{trace.NameFlush, "flush"}, {trace.NameDecs, "decs"}, {trace.NameSATBSeed, "satb-seed"},
	{trace.NameIncrements, "increments"}, {trace.NameResolve, "resolve"},
	{trace.NameRootDecs, "root-decs"}, {trace.NameReclaim, "reclaim"}, {trace.NameSweep, "sweep"},
	{trace.NameSATBFinal, "satb-final"}, {trace.NamePacer, "pacer"}, {trace.NameDecSubmit, "dec-submit"},
}

// phaseMs sums the tracer's LXR pause-phase spans inside the measured
// phase, by phase name, in milliseconds.
func phaseMs(tr *trace.Tracer, w *phaseStats, names map[trace.NameID]string) map[string]float64 {
	out := map[string]float64{}
	lo := w.start.at.Sub(tr.Epoch()).Nanoseconds()
	hi := w.end.at.Sub(tr.Epoch()).Nanoseconds()
	for _, sd := range tr.Drain() {
		if sd.Shard != trace.ShardGC {
			continue
		}
		for _, ev := range sd.Events {
			if name, ok := names[ev.Name]; ok && ev.Kind == trace.KindSpan && ev.T >= lo && ev.T < hi {
				out[name] += ms(ev.Dur)
			}
		}
	}
	return out
}

// layerMetrics computes the per-layer metrics of a traced run.
func layerMetrics(r *measured, full time.Duration, timers []*callTimer, tr *trace.Tracer, untracedCPUPerOp float64) map[string]float64 {
	w, tl := r.stats, &r.tally
	m := map[string]float64{}
	var ns [numCalls][]int64
	var stalls, stores int64
	for _, t := range timers {
		for c := range ns {
			ns[c] = append(ns[c], t.ns[c]...)
		}
		stalls += t.stalls
		stores += t.stores
	}
	for c := range ns {
		slices.Sort(ns[c])
	}

	// vm: the mutator-facing calls and the rendezvous.
	m["vm.alloc_ns.p50"] = float64(sortedPercentile(ns[callAlloc], 50))
	m["vm.alloc_ns.p99"] = float64(sortedPercentile(ns[callAlloc], 99))
	m["vm.alloc_stall.count"] = float64(stalls)
	m["vm.store_ns.p50"] = float64(sortedPercentile(ns[callStore], 50))
	m["vm.store_ns.p99"] = float64(sortedPercentile(ns[callStore], 99))
	m["vm.load_ns.p50"] = float64(sortedPercentile(ns[callLoad], 50))
	ttsp := w.pauseNs(anyKind, true)
	m["vm.ttsp_ms.p50"] = ms(sortedPercentile(ttsp, 50))
	m["vm.ttsp_ms.p99"] = ms(sortedPercentile(ttsp, 99))

	// immix: the allocator's medium and large paths, young sweeping.
	m["immix.alloc_ns.medium.p50"] = float64(sortedPercentile(ns[callMedium], 50))
	m["immix.alloc_ns.large.p50"] = float64(sortedPercentile(ns[callLarge], 50))
	m["immix.young_free_blocks"] = w.counter("lxr.young.freeblocks")

	// core: LXR's pauses by kind and its RC, barrier and reclamation work.
	isRC := func(k string) bool { return k == "rc" }
	hasMark := func(k string) bool { return strings.HasPrefix(k, "rc") && strings.Contains(k, "+mark") }
	hasDec := func(k string) bool { return strings.HasPrefix(k, "rc") && strings.Contains(k, "+dec") }
	isLXR := func(k string) bool { return strings.HasPrefix(k, "rc") }
	rc := w.pauseNs(isRC, false)
	m["core.pause.rc.p50_ms"] = ms(sortedPercentile(rc, 50))
	m["core.pause.rc.p99_ms"] = ms(sortedPercentile(rc, 99))
	m["core.pause.rc.count"] = float64(len(rc))
	mark := w.pauseNs(hasMark, false)
	m["core.pause.rc_mark.p50_ms"] = ms(sortedPercentile(mark, 50))
	m["core.pause.rc_mark.count"] = float64(len(mark))
	m["core.pause.rc_dec.count"] = float64(len(w.pauseNs(hasDec, false)))
	incs := w.counter("lxr.increments")
	m["core.increments"] = incs
	m["core.inc_ns"] = 0
	if incs > 0 {
		var total int64
		for _, d := range w.pauseNs(isLXR, false) {
			total += d
		}
		m["core.inc_ns"] = float64(total) / incs
	}
	m["core.decrements"] = w.counter("lxr.decrements")
	slow := w.counter("lxr.barrier.slow")
	m["core.barrier_slow"] = slow
	m["core.barrier_slow_frac"] = 0
	if stores > 0 {
		m["core.barrier_slow_frac"] = slow / float64(stores)
	}
	m["core.evac_young_mb"] = w.counter("lxr.evac.young.bytes") / 1e6
	m["core.evac_mature_objs"] = w.counter("lxr.evac.mature")
	m["core.promoted"] = w.counter("lxr.promoted")
	m["core.dead_old"] = w.counter("lxr.dead.old")
	m["core.dead_satb"] = w.counter("lxr.dead.satb")

	// satb, conctrl, gcwork: concurrent tracing, loans and worker load.
	m["satb.cycles"] = w.counter("lxr.pauses.satb")
	m["conctrl.conc_work_ms"] = ms(int64(w.end.concWork - w.start.concWork))
	m["conctrl.loans"] = float64(w.end.loans - w.start.loans)
	m["conctrl.loan_items"] = float64(w.end.loanItems - w.start.loanItems)
	m["gcwork.gc_work_ms"] = ms(int64(w.end.gcWork - w.start.gcWork))
	m["gcwork.pause_items_imbalance"] = imbalance(w.start.workerItems, w.end.workerItems)

	// policy: trigger decisions by kind.
	trig := w.triggers()
	for _, k := range triggerKinds {
		m["policy.triggers."+k] = trig[k]
	}

	// baselines: G1's young and mixed pauses, and the whole-heap pauses
	// of the stop-the-world collectors (Parallel, Immix).
	isKind := func(kind string) func(string) bool { return func(k string) bool { return k == kind } }
	whole := w.pauseNs(isKind("full"), false)
	m["baselines.pause.full.p50_ms"] = ms(sortedPercentile(whole, 50))
	m["baselines.pause.full.p99_ms"] = ms(sortedPercentile(whole, 99))
	m["baselines.pause.full.count"] = float64(len(whole))
	young := w.pauseNs(isKind("young"), false)
	m["baselines.pause.young.p50_ms"] = ms(sortedPercentile(young, 50))
	m["baselines.pause.young.p99_ms"] = ms(sortedPercentile(young, 99))
	m["baselines.pause.young.count"] = float64(len(young))
	mixed := w.pauseNs(isKind("mixed"), false)
	m["baselines.pause.mixed.p50_ms"] = ms(sortedPercentile(mixed, 50))
	m["baselines.pause.mixed.count"] = float64(len(mixed))

	// trace: LXR's pause phases from the runtime's own spans.
	names := map[trace.NameID]string{}
	for _, p := range lxrPhases {
		names[p.id] = p.name
	}
	phase := phaseMs(tr, w, names)
	for _, p := range lxrPhases {
		m["core.phase."+p.name+".ms"] = phase[p.name]
	}

	// bench: the benchmark's own view, with the end-to-end tails.
	e2e := endToEnd(*r, full)
	m["bench.lat_p99_ms"] = e2e["lat_p99_ms"]
	m["bench.pause_p90_ms"] = e2e["pause_p90_ms"]
	m["bench.op_ms.p50"] = ms(sortedPercentile(ns[callRequest], 50))
	m["bench.gen_late_ms.p99"] = ms(percentile(tl.late, 99))
	m["bench.fail_frac"] = float64(tl.failed) / float64(tl.attempted)
	m["trace.overhead_frac"] = r.cpuPerOp()/untracedCPUPerOp - 1
	return m
}

// imbalance is the busiest GC worker's share of pause work items over
// the mean worker's, across the measured phase (1 = perfectly balanced).
func imbalance(start, end []int64) float64 {
	if len(end) == 0 || len(start) != len(end) {
		return 0
	}
	var sum, most int64
	for i := range end {
		d := end[i] - start[i]
		sum += d
		most = max(most, d)
	}
	if sum == 0 {
		return 0
	}
	return float64(most) * float64(len(end)) / float64(sum)
}
