package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// reqSeq and batchSeq draw n plans for one mutator and deep-copy them.
func reqSeq(p reqParams, seed uint64, mutator, n int) []reqPlan {
	g := newReqGen(p, seed, mutator)
	out := make([]reqPlan, n)
	var pl reqPlan
	for i := range out {
		g.next(&pl)
		out[i] = reqPlan{
			words:   append([]int32(nil), pl.words...),
			survive: append([]int32(nil), pl.survive...),
			reads:   append([]int32(nil), pl.reads...),
			restore: pl.restore,
		}
	}
	return out
}

func batchSeq(p batchParams, seed uint64, mutator, n int) []batchPlan {
	g := newBatchGen(p, seed, mutator)
	out := make([]batchPlan, n)
	var pl batchPlan
	for i := range out {
		g.next(&pl)
		out[i] = batchPlan{
			words:   append([]int32(nil), pl.words...),
			ring:    pl.ring,
			survive: pl.survive,
			stores:  append([]store(nil), pl.stores...),
			reads:   append([]int32(nil), pl.reads...),
		}
	}
	return out
}

func workloadByName(t *testing.T, name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}

func TestSameSeedSameOperations(t *testing.T) {
	rp := workloadByName(t, "req-lxr").req
	bp := workloadByName(t, "batch-mature").batch
	if !reflect.DeepEqual(reqSeq(rp, 7, 0, 500), reqSeq(rp, 7, 0, 500)) {
		t.Error("request sequence differs between two generators with one seed")
	}
	if !reflect.DeepEqual(batchSeq(bp, 7, 1, 500), batchSeq(bp, 7, 1, 500)) {
		t.Error("batch sequence differs between two generators with one seed")
	}
	if reflect.DeepEqual(reqSeq(rp, 7, 0, 50), reqSeq(rp, 8, 0, 50)) {
		t.Error("request sequence does not depend on the seed")
	}
	if reflect.DeepEqual(batchSeq(bp, 7, 0, 50), batchSeq(bp, 7, 1, 50)) {
		t.Error("batch sequences of two mutators are identical")
	}
}

// TestLiveSetBounded replays generated sequences against a model of the
// table (bytes held in each slot) and checks that the live bytes never
// exceed liveBound, and that every index the generator emits is in range.
func TestLiveSetBounded(t *testing.T) {
	rp := workloadByName(t, "req-lxr").req
	g := newReqGen(rp, 3, 0)
	slot := make([]int, rp.tableSlots)
	table := 0
	for s := range slot {
		slot[s] = objBytes(refSlots, g.initWords())
		table += slot[s]
	}
	var pl reqPlan
	for i := 0; i < 20000; i++ {
		g.next(&pl)
		inFlight := 0
		for j, w := range pl.words {
			b := objBytes(refSlots, int(w))
			if s := pl.survive[j]; s >= 0 {
				table += b - slot[s]
				slot[s] = b
			} else {
				inFlight += b
			}
		}
		if live := table + tableOverhead(rp.tableSlots) + inFlight; live > rp.liveBound() {
			t.Fatalf("request %d: live %d B exceeds bound %d B", i, live, rp.liveBound())
		}
		for _, s := range append(pl.reads, pl.restore) {
			if s < -1 || int(s) >= rp.tableSlots {
				t.Fatalf("request %d: slot %d out of range", i, s)
			}
		}
	}

	bp := workloadByName(t, "batch-mature").batch
	bg := newBatchGen(bp, 3, 0)
	cl := make([]int, bp.tableSlots)
	table = 0
	var bpl batchPlan
	for s := range cl {
		bg.cluster(&bpl)
		cl[s] = int(clusterBytes(bpl.words))
		table += cl[s]
	}
	for i := 0; i < 20000; i++ {
		bg.next(&bpl)
		if n := len(bpl.words); n < bp.minNodes || n > bp.maxNodes {
			t.Fatalf("step %d: cluster of %d nodes", i, n)
		}
		b := int(clusterBytes(bpl.words))
		if live := table + tableOverhead(bp.tableSlots) + b; live > bp.liveBound() {
			t.Fatalf("step %d: live %d B exceeds bound %d B", i, live, bp.liveBound())
		}
		if s := bpl.survive; s >= 0 {
			table += b - cl[s]
			cl[s] = b
		}
		for _, st := range bpl.stores {
			if st.slot < 0 || int(st.slot) >= bp.tableSlots || st.a < 1 || st.b < 0 {
				t.Fatalf("step %d: store %+v out of range", i, st)
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric name and unit against the
// characters results may use, and that BENCHMARK.json at the repository
// root lists workloads this program runs and exactly the metrics it
// reports.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	all := append(append([]metric(nil), endToEndMetrics...), perLayerMetrics()...)
	for _, m := range all {
		if !nameRE.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric name %q is malformed or repeated", m.name)
		}
		seen[m.name] = true
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: malformed unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better is %q", m.name, m.better)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, bw := range bench.Workloads {
		found := false
		for _, w := range workloads {
			found = found || w.name == bw.Name
		}
		if !found {
			t.Errorf("BENCHMARK.json lists workload %q, which the program does not run", bw.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, program reports %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, endToEndMetrics)
	check("per_layer", bench.PerLayer, perLayerMetrics())
}
