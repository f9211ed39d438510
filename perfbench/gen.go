package main

// The workload generator. It is pure: it draws every operation of a run
// from a seeded stream and never touches the runtime, so the same seed
// always yields the same operation sequence, and the shapes it can emit
// are bounded by its parameters, so the live set is bounded by
// construction (see liveBound).

// rng is a splitmix64 stream: tiny, fast and good enough to drive a
// workload generator.
type rng struct{ s uint64 }

// newRNG derives an independent stream from the run seed and a stream
// number (one per mutator, so each mutator's sequence is its own).
func newRNG(seed, stream uint64) *rng {
	return &rng{s: mix(seed, stream^0x5851f42d4c957f2d)}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// between returns a value in [lo, hi].
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// chance reports true with probability perMille/1000.
func (r *rng) chance(perMille int) bool { return r.intn(1000) < perMille }

// mix is a 64-bit hash of two words (splitmix64 finaliser of a+b*k).
func mix(a, b uint64) uint64 {
	z := a + b*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// checksum is the value an object with the given id must carry in a run
// seeded with seed. It never equals 0, so a zeroed (freed) object fails.
func checksum(seed, id uint64) uint64 { return mix(seed, id) | 1 }

// Object-size arithmetic, mirroring the runtime's object model: a
// two-word header, then reference slots, then payload, rounded up to
// the 16-byte allocation granule.
const (
	headerBytes = 16
	granule     = 16
	refSlots    = 2 // every generated object has two reference slots
)

// objBytes is the heap footprint of an object with the given payload.
func objBytes(refs, payloadWords int) int {
	sz := headerBytes + 8*refs + 8*payloadWords
	return (sz + granule - 1) &^ (granule - 1)
}

// slotPicker chooses the table slot a survivor replaces: mostly the
// slot filled longest ago, so objects promoted together die together,
// and with probability randomPerMille/1000 a random slot, which leaves
// holes in the mature space.
type slotPicker struct{ next int }

func (t *slotPicker) pick(r *rng, slots, randomPerMille int) int32 {
	if r.chance(randomPerMille) {
		return int32(r.intn(slots))
	}
	s := t.next
	t.next = (t.next + 1) % slots
	return int32(s)
}

// --- request workloads ---------------------------------------------------------

// reqParams shapes the request workloads.
type reqParams struct {
	minObjs, maxObjs   int // objects allocated per request
	minWords, maxWords int // payload words per object (2..)
	survivePerMille    int // share of objects kept in the mature table
	randomPerMille     int // share of those replacing a random slot, not the oldest
	matureReads        int // table objects read back per request
	restorePerMille    int // chance of one mature→mature re-store per request
	tableSlots         int // mature-table slots per mutator (even)
}

// reqPlan is one generated request.
type reqPlan struct {
	words   []int32 // payload words of each object, in allocation order
	survive []int32 // table slot the object goes to, or -1 (dies with the request)
	reads   []int32 // table slots read back after the request's own objects
	restore int32   // table slot whose partner link is stored again, or -1
}

// reqGen generates one mutator's request sequence.
type reqGen struct {
	p reqParams
	r *rng
	t slotPicker
}

func newReqGen(p reqParams, seed uint64, mutator int) *reqGen {
	return &reqGen{p: p, r: newRNG(seed, uint64(mutator))}
}

// next fills pl with the next request, reusing its slices.
func (g *reqGen) next(pl *reqPlan) {
	p, r := &g.p, g.r
	n := r.between(p.minObjs, p.maxObjs)
	pl.words, pl.survive = pl.words[:0], pl.survive[:0]
	for i := 0; i < n; i++ {
		pl.words = append(pl.words, int32(r.between(p.minWords, p.maxWords)))
		slot := int32(-1)
		if r.chance(p.survivePerMille) {
			slot = g.t.pick(r, p.tableSlots, p.randomPerMille)
		}
		pl.survive = append(pl.survive, slot)
	}
	pl.reads = pl.reads[:0]
	for i := 0; i < p.matureReads; i++ {
		pl.reads = append(pl.reads, int32(r.intn(p.tableSlots)))
	}
	pl.restore = -1
	if r.chance(p.restorePerMille) {
		pl.restore = int32(r.intn(p.tableSlots))
	}
}

// initWords is the payload size of the object initially placed in table
// slot s (the set-up live set), drawn from the same distribution.
func (g *reqGen) initWords() int { return g.r.between(g.p.minWords, g.p.maxWords) }

// liveBound is the most heap one mutator of a request workload can keep
// live: a full table of the largest objects, the table itself, and one
// request in flight.
func (p reqParams) liveBound() int {
	maxObj := objBytes(refSlots, p.maxWords)
	return p.tableSlots*maxObj + tableOverhead(p.tableSlots) + p.maxObjs*maxObj
}

// --- batch workload ------------------------------------------------------------

// batchParams shapes the batch workload.
type batchParams struct {
	minNodes, maxNodes int // nodes per cluster
	smallWords         [2]int
	mediumWords        [2]int
	largeWords         [2]int
	mediumPerMille     int // share of nodes that are medium
	largePerMille      int // share of nodes that are large
	survivePerMille    int // share of clusters kept in the mature table
	randomPerMille     int // share of those replacing a random slot, not the oldest
	ringPerMille       int // share of clusters that are rings (cyclic garbage when dropped)
	matureStores       int // mature→mature stores per step
	crossPerMille      int // share of those that link to the partner cluster
	matureReads        int // table clusters walked per step
	tableSlots         int // mature-table slots per mutator (even)
}

// store is one generated mature→mature store. A cross store points the
// head of the cluster in slot at node b of the partner cluster (slot^1);
// an intra store points node a of the cluster at another of its nodes,
// chosen from b: any node in a ring, a later node (or nil) in a chain,
// so a chain never gains a cycle. Node indices are reduced to the
// target cluster's size when applied.
type store struct {
	slot  int32
	a, b  int32
	cross bool
}

// batchPlan is one generated batch step.
type batchPlan struct {
	words   []int32 // payload words of each node of the new cluster
	ring    bool    // the cluster's last node links back to its head
	survive int32   // table slot the cluster replaces, or -1 (it dies)
	stores  []store
	reads   []int32 // table slots whose clusters are walked
}

// batchGen generates one mutator's batch step sequence.
type batchGen struct {
	p batchParams
	r *rng
	t slotPicker
}

func newBatchGen(p batchParams, seed uint64, mutator int) *batchGen {
	return &batchGen{p: p, r: newRNG(seed, uint64(mutator))}
}

// nodeWords draws one node's payload size: small, medium or large.
func (g *batchGen) nodeWords() int {
	p, r := &g.p, g.r
	w := p.smallWords
	switch k := r.intn(1000); {
	case k < p.largePerMille:
		w = p.largeWords
	case k < p.largePerMille+p.mediumPerMille:
		w = p.mediumWords
	}
	return r.between(w[0], w[1])
}

// cluster draws one cluster's shape into pl.
func (g *batchGen) cluster(pl *batchPlan) {
	n := g.r.between(g.p.minNodes, g.p.maxNodes)
	pl.words = pl.words[:0]
	for i := 0; i < n; i++ {
		pl.words = append(pl.words, int32(g.nodeWords()))
	}
	pl.ring = g.r.chance(g.p.ringPerMille)
}

// next fills pl with the next step, reusing its slices.
func (g *batchGen) next(pl *batchPlan) {
	p, r := &g.p, g.r
	pl.survive = -1
	if r.chance(p.survivePerMille) {
		pl.survive = g.t.pick(r, p.tableSlots, p.randomPerMille)
	}
	g.cluster(pl)
	pl.stores = pl.stores[:0]
	for i := 0; i < p.matureStores; i++ {
		pl.stores = append(pl.stores, store{
			slot:  int32(r.intn(p.tableSlots)),
			a:     int32(1 + r.intn(p.maxNodes-1)),
			b:     int32(r.intn(p.maxNodes)),
			cross: r.chance(p.crossPerMille),
		})
	}
	pl.reads = pl.reads[:0]
	for i := 0; i < p.matureReads; i++ {
		pl.reads = append(pl.reads, int32(r.intn(p.tableSlots)))
	}
}

// liveBound is the most heap one mutator of the batch workload can keep
// live: a full table of the largest clusters, the table, and the largest
// cluster being built.
func (p batchParams) liveBound() int {
	cluster := p.maxNodes * objBytes(refSlots, p.largeWords[1])
	return (p.tableSlots+1)*cluster + tableOverhead(p.tableSlots)
}

// expectedLive is the mean live heap of one mutator of the batch
// workload: a full table of mean-sized clusters. Heaps are sized from it
// (liveBound is a worst case no real sequence approaches).
func (p batchParams) expectedLive() int {
	return p.tableSlots*p.meanClusterBytes() + tableOverhead(p.tableSlots)
}

// meanClusterBytes is the mean heap one cluster takes.
func (p batchParams) meanClusterBytes() int {
	mean := func(w [2]int) float64 { return float64(objBytes(refSlots, (w[0]+w[1])/2)) }
	med, lrg := float64(p.mediumPerMille)/1000, float64(p.largePerMille)/1000
	node := (1-med-lrg)*mean(p.smallWords) + med*mean(p.mediumWords) + lrg*mean(p.largeWords)
	return int(node * float64(p.minNodes+p.maxNodes) / 2)
}

// expectedLive is the mean live heap of one mutator of a request
// workload: a full table of mean-sized objects plus one request.
func (p reqParams) expectedLive() int {
	obj := objBytes(refSlots, (p.minWords+p.maxWords)/2)
	return p.tableSlots*obj + tableOverhead(p.tableSlots) + (p.minObjs+p.maxObjs)/2*obj
}
