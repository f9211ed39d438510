// Command perfbench is the repository's end-to-end benchmark. It drives
// the runtime only through the public lxr API, with operations drawn
// from its own seeded generator, and checks every object it reads back.
//
//	perfbench --workload req-parallel --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off;
// with --trace 1 it runs the same workload twice, untraced and then
// traced, and reports the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The line before it, starting "host ", records the host,
// the runtime settings and the source the result was measured on.
package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	"lxr"
	"lxr/internal/trace"
)

// workload is one benchmark workload. Request workloads serve metered
// requests in an open loop; batch workloads (mbPerSec > 0) allocate a
// fixed volume in a closed loop. BENCHMARK.json records why each one is
// in the benchmark.
type workload struct {
	name      string
	collector lxr.CollectorKind
	rate      float64 // requests per second, all mutators together
	req       reqParams
	mbPerSec  float64 // batch: MB to allocate per second of --seconds
	batch     batchParams
	// heapFactor sizes the heap as a multiple of the generator's
	// expected live bytes.
	heapFactor float64
}

// requests is the traffic every request workload serves: small objects,
// short-lived, about 1% kept in a bounded table, few pointer stores.
var requests = reqParams{
	minObjs: 150, maxObjs: 350,
	minWords: 2, maxWords: 10,
	survivePerMille: 10,
	randomPerMille:  100,
	matureReads:     8,
	restorePerMille: 100,
	tableSlots:      1 << 16,
}

// The request rate is far below capacity (about 0.6 of one CPU busy on
// a 2-vCPU host). The request heap is 5× the expected live set, the
// smallest whole multiple at which G1 serves this traffic without
// running out of memory; it is chosen from G1 alone, so a failure of
// another collector at that heap shows.
const (
	requestRate       = 7000 // requests per second
	requestHeapFactor = 5
)

// clusters is the traffic the batch workload allocates: clusters of
// small, medium and large nodes, half of them rings; 15% of clusters are
// kept in a bounded table, and kept clusters are stored into and read.
var clusters = batchParams{
	minNodes: 4, maxNodes: 12,
	smallWords:      [2]int{4, 16},
	mediumWords:     [2]int{64, 1024},
	largeWords:      [2]int{2100, 4600},
	mediumPerMille:  120,
	largePerMille:   25,
	survivePerMille: 150,
	randomPerMille:  100,
	ringPerMille:    500,
	matureStores:    4,
	crossPerMille:   250,
	matureReads:     2,
	tableSlots:      8192,
}

// The batch workload allocates a fixed volume: 300 MB per second of
// --seconds. Its heap is 4× the expected live set.
const (
	batchRate       = 300
	batchHeapFactor = 4
)

var workloads = []workload{
	{
		name:       "req-lxr",
		collector:  lxr.CollectorLXR,
		rate:       requestRate,
		req:        requests,
		heapFactor: requestHeapFactor,
	},
	{
		name:       "req-g1",
		collector:  lxr.CollectorG1,
		rate:       requestRate,
		req:        requests,
		heapFactor: requestHeapFactor,
	},
	{
		// Half the rate: at the full rate the Parallel collector's
		// whole-heap pauses take a fifth of the time and the median
		// request waits behind one in some runs but not in others.
		name:       "req-parallel",
		collector:  lxr.CollectorParallel,
		rate:       requestRate / 2,
		req:        requests,
		heapFactor: requestHeapFactor,
	},
	{
		name:       "batch-mature",
		collector:  lxr.CollectorLXR,
		mbPerSec:   batchRate,
		batch:      clusters,
		heapFactor: batchHeapFactor,
	},
	{
		// The batch traffic and heap under the stop-the-world Immix
		// collector: non-moving mark-region tracing on the block and
		// line structure LXR's mature space shares.
		name:       "batch-immix",
		collector:  lxr.CollectorImmix,
		mbPerSec:   batchRate,
		batch:      clusters,
		heapFactor: batchHeapFactor,
	},
}

// processStart is when the process started; phaseLimit and exitLimit
// keep a run that has slowed down far below its normal speed within the
// time a run may take.
var processStart = time.Now()

const (
	phaseSlack = 10 * time.Second
	phaseLimit = 140 * time.Second
	exitLimit  = 170 * time.Second
)

// Run settings shared by every workload.
const (
	gcThreads    = 2
	maxMutators  = 2
	setupRepeats = 5   // set-ups per untraced run; setup_s is their median
	warmFraction = 0.1 // warm-up length as a share of --seconds
	traceShard   = 1 << 15
)

// config is one invocation's settings.
type config struct {
	w        *workload
	seed     uint64
	seconds  float64
	mutators int
}

func (c *config) heapBytes() int {
	live := c.w.req.expectedLive()
	if c.w.mbPerSec > 0 {
		live = c.w.batch.expectedLive()
	}
	h := int(c.w.heapFactor * float64(live*c.mutators))
	return (h + 1<<20 - 1) &^ (1<<20 - 1)
}

// newRuntime builds the workload's runtime; tr, when non-nil, receives
// the runtime's events.
func (c *config) newRuntime(tr *trace.Tracer) *lxr.Runtime {
	rc := lxr.RuntimeConfig{Collector: c.w.collector, HeapBytes: c.heapBytes(), GCThreads: gcThreads}
	if tr != nil && c.w.collector == lxr.CollectorLXR {
		rc.LXR = &lxr.LXRConfig{Tracer: tr}
	}
	rt := lxr.NewRuntime(rc)
	rt.SetTracer(tr) // before any mutator registers
	return rt
}

// startSession builds a runtime and its mutators' live sets. A traced
// session (tr non-nil) also gets a call timer per mutator, timing while
// *on is raised.
func (c *config) startSession(tr *trace.Tracer, on *bool) (*session, time.Time, []*callTimer) {
	created := time.Now()
	rt := c.newRuntime(tr)
	var timers []*callTimer
	if tr != nil {
		for range c.mutators {
			timers = append(timers, newCallTimer(on, tr, rt.Stats))
		}
	}
	mk := func(m *lxr.Mutator, idx int) driver {
		var tm *callTimer
		if timers != nil {
			tm = timers[idx]
		}
		if c.w.mbPerSec == 0 {
			return newReqDriver(m, c.seed, idx, c.w.req, tm)
		}
		return newBatchDriver(m, c.seed, idx, c.w.batch, tm)
	}
	return startSession(rt, c.mutators, mk), created, timers
}

// phaseFor describes a phase of the given length starting now. Its
// deadline, when it stops and counts its remaining work as failed, is
// four times its length (at least phaseSlack) or the process's phase
// limit, whichever comes first.
func (c *config) phaseFor(seconds float64) *phase {
	ph := &phase{origin: time.Now(), mutators: c.mutators}
	if c.w.mbPerSec == 0 {
		ph.epoch = ph.origin.Add(2 * time.Millisecond)
		ph.interval = time.Duration(float64(time.Second) / c.w.rate)
		ph.n = int(c.w.rate * seconds)
		ph.ops = ph.n/c.mutators + 1
	} else {
		ph.bytes = int64(c.w.mbPerSec * seconds * 1e6 / float64(c.mutators))
		ph.ops = int(ph.bytes/int64(c.w.batch.meanClusterBytes())) * 5 / 4
	}
	ph.deadline = ph.origin.Add(max(time.Duration(4*seconds*float64(time.Second)), phaseSlack))
	if limit := processStart.Add(phaseLimit); ph.deadline.After(limit) {
		ph.deadline = limit
	}
	return ph
}

// measured is the outcome of one session's measured phase.
type measured struct {
	stats   *phaseStats
	tally   tally    // merged over mutators
	samples []sample // window boundaries
}

// windows is how many equal windows the measured phase is cut into (see
// endToEnd): a few seconds of interference from outside the process
// then move a median over windows little.
const windows = 10

// sample is the process CPU time and the runtime's summed pause time at
// one instant (since the phase's origin) of the measured phase.
type sample struct {
	at    time.Duration
	cpu   time.Duration
	pause time.Duration
}

// sampleWindows samples rt now and then every interval until stop is
// closed, takes a last sample and sends them all on out.
func sampleWindows(rt *lxr.Runtime, origin time.Time, every time.Duration, stop <-chan struct{}, out chan<- []sample) {
	take := func() sample {
		return sample{at: time.Since(origin), cpu: cpuTime(), pause: rt.Stats.TotalPause()}
	}
	ss := []sample{take()}
	tk := time.NewTicker(every)
	defer tk.Stop()
	for {
		select {
		case <-tk.C:
			ss = append(ss, take())
		case <-stop:
			out <- append(ss, take())
			return
		}
	}
}

// measure runs a started session through warm-up, the measured phase
// and the final walk, then shuts its runtime down. on, when non-nil, is
// raised for the measured phase only.
func (c *config) measure(s *session, created time.Time, on *bool) measured {
	s.open(gateWarm, c.phaseFor(c.seconds*warmFraction))
	if on != nil {
		*on = true
	}
	start := takeSnapshot(s.rt)
	ph := c.phaseFor(c.seconds)
	stop, got := make(chan struct{}), make(chan []sample, 1)
	go sampleWindows(s.rt, ph.origin, c.window(), stop, got)
	s.open(gateMeasure, ph)
	close(stop)
	samples := <-got
	end := takeSnapshot(s.rt)
	if on != nil {
		*on = false
	}
	s.open(gateWalk, nil)
	s.exit.Wait()
	s.rt.Shutdown()
	out := measured{stats: newPhaseStats(s.rt, created, start, end), samples: samples}
	for i := range s.tallies {
		out.tally.merge(&s.tallies[i])
	}
	return out
}

// cpuPerOp is the process CPU time per operation of the measured phase.
func (r *measured) cpuPerOp() float64 {
	return float64(r.stats.end.cpu-r.stats.start.cpu) / float64(r.tally.attempted)
}

// release drops a finished runtime and returns its memory to the OS,
// so the next one starts from the same resident set.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

// window is the length of one measured window.
func (c *config) window() time.Duration {
	return time.Duration(c.seconds / windows * float64(time.Second))
}

// endToEnd computes the end-to-end metrics of a measured phase but
// setup_s. Rates, latency percentiles and CPU per operation are taken
// per window and reported as their median over the windows (a window
// shorter than half the others, the tail of a closed loop, is left out);
// cpu_s is the median CPU per operation times the operations done. Pause
// percentiles are over every pause that started in the phase.
func endToEnd(r measured, full time.Duration) map[string]float64 {
	ops := slices.Clone(r.tally.ops)
	slices.SortFunc(ops, func(a, b op) int { return cmp.Compare(a.end, b.end) })
	var alloc, cpu, p50, p99, stw []float64
	i := 0
	for k := 0; k+1 < len(r.samples); k++ {
		a, b := r.samples[k], r.samples[k+1]
		j := i
		for j < len(ops) && ops[j].end < b.at {
			j++
		}
		in := ops[i:j]
		i = j
		dt := b.at - a.at
		if len(in) == 0 || dt < full/2 {
			continue
		}
		var bytes int64
		lat := make([]int64, len(in))
		for n, o := range in {
			bytes += o.bytes
			lat[n] = int64(o.lat)
		}
		slices.Sort(lat)
		alloc = append(alloc, float64(bytes)/1e6/dt.Seconds())
		cpu = append(cpu, (b.cpu-a.cpu).Seconds()/float64(len(in)))
		p50 = append(p50, ms(sortedPercentile(lat, 50)))
		p99 = append(p99, ms(sortedPercentile(lat, 99)))
		stw = append(stw, float64(b.pause-a.pause)/float64(dt))
	}
	pauses := r.stats.pauseNs(anyKind, false)
	return map[string]float64{
		"alloc_mb_s":   median(alloc),
		"cpu_s":        median(cpu) * float64(len(ops)),
		"lat_p50_ms":   median(p50),
		"lat_p99_ms":   median(p99),
		"pause_p50_ms": ms(sortedPercentile(pauses, 50)),
		"pause_p90_ms": ms(sortedPercentile(pauses, 90)),
		"stw_frac":     median(stw),
		"peak_rss_mb":  peakRSSMB(),
	}
}

// runUntraced measures the end-to-end metrics.
func runUntraced(c *config) (measured, map[string]float64) {
	t0 := time.Now()
	s, created, _ := c.startSession(nil, nil)
	setups := []float64{time.Since(t0).Seconds()}
	r := c.measure(s, created, nil)
	got := endToEnd(r, c.window())
	// The other set-ups come after the measured run, so they do not
	// count in its peak resident set.
	release()
	for len(setups) < setupRepeats {
		t0 := time.Now()
		s, _, _ := c.startSession(nil, nil)
		setups = append(setups, time.Since(t0).Seconds())
		s.close(gateWarm)
		s.rt.Shutdown()
		release()
	}
	got["setup_s"] = median(setups)
	return r, got
}

// runTraced measures a quarter-length untraced run, for the tracing
// overhead, then a traced run, and reports the traced run's per-layer
// metrics.
func runTraced(c *config) (measured, map[string]float64) {
	short := *c
	short.seconds /= 4
	s, created, _ := short.startSession(nil, nil)
	base := short.measure(s, created, nil)
	release()

	tr := trace.New(trace.Config{ShardCap: traceShard})
	on := new(bool)
	s, created, timers := c.startSession(tr, on)
	r := c.measure(s, created, on)
	layers := layerMetrics(&r, c.window(), timers, tr, base.cpuPerOp())
	r.tally.merge(&base.tally)
	return r, layers
}

// metric names one reported metric, its unit and which way is better.
type metric struct {
	name, unit, better string
}

// endToEndMetrics are reported by an untraced run, on every workload.
// The latency and pause tails (lat_p99_ms, pause_p90_ms) are printed
// beside them but not reported: on a 2-vCPU host shared with other
// machines their run-to-run spread is 0.3 to 0.8 of their median, wider
// than any bound a regression gate can use. Traced runs report them as
// bench.lat_p99_ms and bench.pause_p90_ms.
var endToEndMetrics = []metric{
	{"setup_s", "s", "lower"},
	{"alloc_mb_s", "MB/s", "higher"},
	{"cpu_s", "s", "lower"},
	{"lat_p50_ms", "ms", "lower"},
	{"pause_p50_ms", "ms", "lower"},
	{"stw_frac", "fraction", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayerMetrics are reported by a traced run, on every workload (0
// where the workload's collector lacks the layer).
func perLayerMetrics() []metric {
	ms := []metric{
		{"vm.alloc_ns.p50", "ns", "lower"},
		{"vm.alloc_ns.p99", "ns", "lower"},
		{"vm.alloc_stall.count", "count", "lower"},
		{"vm.store_ns.p50", "ns", "lower"},
		{"vm.store_ns.p99", "ns", "lower"},
		{"vm.load_ns.p50", "ns", "lower"},
		{"vm.ttsp_ms.p50", "ms", "lower"},
		{"vm.ttsp_ms.p99", "ms", "lower"},
		{"immix.alloc_ns.medium.p50", "ns", "lower"},
		{"immix.alloc_ns.large.p50", "ns", "lower"},
		{"immix.young_free_blocks", "count", "higher"},
		{"core.pause.rc.p50_ms", "ms", "lower"},
		{"core.pause.rc.p99_ms", "ms", "lower"},
		{"core.pause.rc.count", "count", "lower"},
		{"core.inc_ns", "ns", "lower"},
		{"core.pause.rc_mark.p50_ms", "ms", "lower"},
		{"core.pause.rc_mark.count", "count", "lower"},
		{"core.pause.rc_dec.count", "count", "lower"},
		{"core.increments", "count", "lower"},
		{"core.decrements", "count", "lower"},
		{"core.barrier_slow", "count", "lower"},
		{"core.barrier_slow_frac", "fraction", "lower"},
		{"core.evac_young_mb", "MB", "lower"},
		{"core.evac_mature_objs", "count", "lower"},
		{"core.promoted", "count", "lower"},
		{"core.dead_old", "count", "higher"},
		{"core.dead_satb", "count", "higher"},
		{"satb.cycles", "count", "lower"},
		{"conctrl.conc_work_ms", "ms", "lower"},
		{"conctrl.loans", "count", "lower"},
		{"conctrl.loan_items", "count", "higher"},
		{"gcwork.gc_work_ms", "ms", "lower"},
		{"gcwork.pause_items_imbalance", "ratio", "lower"},
	}
	for _, k := range triggerKinds {
		ms = append(ms, metric{"policy.triggers." + k, "count", "lower"})
	}
	ms = append(ms,
		metric{"baselines.pause.young.p50_ms", "ms", "lower"},
		metric{"baselines.pause.young.p99_ms", "ms", "lower"},
		metric{"baselines.pause.young.count", "count", "lower"},
		metric{"baselines.pause.mixed.p50_ms", "ms", "lower"},
		metric{"baselines.pause.mixed.count", "count", "lower"},
		metric{"baselines.pause.full.p50_ms", "ms", "lower"},
		metric{"baselines.pause.full.p99_ms", "ms", "lower"},
		metric{"baselines.pause.full.count", "count", "lower"},
	)
	for _, p := range lxrPhases {
		ms = append(ms, metric{"core.phase." + p.name + ".ms", "ms", "lower"})
	}
	return append(ms,
		metric{"bench.lat_p99_ms", "ms", "lower"},
		metric{"bench.pause_p90_ms", "ms", "lower"},
		metric{"bench.op_ms.p50", "ms", "lower"},
		metric{"bench.gen_late_ms.p99", "ms", "lower"},
		metric{"bench.fail_frac", "fraction", "lower"},
		metric{"trace.overhead_frac", "fraction", "lower"},
	)
}

// value is one metric as the result line reports it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: req-parallel, req-g1, req-lxr, batch-immix or batch-mature")
		seed    = flag.Uint64("seed", 1, "seed of the generated operations")
		seconds = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		traced  = flag.Int("trace", 0, "1: report per-layer metrics from a traced run; 0: end-to-end metrics, untraced")
	)
	flag.Parse()
	c := &config{seed: *seed, seconds: *seconds, mutators: min(maxMutators, runtime.NumCPU())}
	for i := range workloads {
		if workloads[i].name == *name {
			c.w = &workloads[i]
		}
	}
	if c.w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload req-parallel|req-g1|req-lxr|batch-immix|batch-mature --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	time.AfterFunc(exitLimit-time.Since(processStart), func() {
		fmt.Fprintf(os.Stderr, "perfbench: no result within %v\n", exitLimit)
		os.Exit(1)
	})
	if err := run(c, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(c *config, traced bool) error {
	var r measured
	var got map[string]float64
	specs := endToEndMetrics
	if traced {
		r, got = runTraced(c)
		specs = perLayerMetrics()
	} else {
		r, got = runUntraced(c)
	}
	t := &r.tally
	if t.firstErr != nil {
		fmt.Printf("# first failure: %v\n", t.firstErr)
	}
	fmt.Printf("# %s seed %d: %d operations, %d failed, %d pauses in %.2f s\n",
		c.w.name, c.seed, t.attempted, t.failed, len(r.stats.pauses), r.stats.wall().Seconds())
	if !traced {
		fmt.Printf("# tails, not reported: lat_p99_ms %.4g (%d requests beyond, per window), pause_p90_ms %.4g (%d pauses beyond)\n",
			got["lat_p99_ms"], beyond(len(t.ops)/windows, 99), got["pause_p90_ms"], beyond(len(r.stats.pauses), 90))
	}
	host, err := json.Marshal(hostRecord(c, t))
	if err != nil {
		return err
	}
	fmt.Printf("host %s\n", host)

	res := result{Correct: !t.incorrect, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]value{}}
	for _, m := range specs {
		res.Metrics[m.name] = value{Value: got[m.name], Unit: m.unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// hostRecord is what a result was measured on and with.
func hostRecord(c *config, t *tally) map[string]any {
	commit, source := sourceID()
	return map[string]any{
		"workload":              c.w.name,
		"seed":                  c.seed,
		"seconds":               c.seconds,
		"collector":             c.w.collector,
		"heap_mb":               c.heapBytes() >> 20,
		"heap_factor":           c.w.heapFactor,
		"mutators":              c.mutators,
		"gc_threads":            gcThreads,
		"rate_per_s":            c.w.rate,
		"nproc":                 runtime.NumCPU(),
		"gomaxprocs":            runtime.GOMAXPROCS(0),
		"go":                    runtime.Version(),
		"commit":                commit,
		"source_sha256":         source,
		"bench.gen_late_ms.p99": ms(percentile(t.late, 99)),
		"service_ms.p50":        ms(percentile(t.service, 50)),
	}
}

// sourceID identifies the measured source: the git commit when the
// working directory is a git checkout ("" otherwise), and a digest of
// every Go source and module file under it, which also covers
// uncommitted edits and checkouts without git metadata.
func sourceID() (commit, digest string) {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		commit = strings.TrimSpace(string(head))
		if ref, ok := strings.CutPrefix(commit, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
				commit = strings.TrimSpace(string(id))
			}
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	return commit, hex.EncodeToString(h.Sum(nil))[:16]
}
