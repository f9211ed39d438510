package main

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"lxr"
	"lxr/internal/gcwork"
)

// Failure classes an operation can end in. Every one counts as a failed
// operation; errCorrupt (and any other panic) also makes the run's
// output incorrect.
var (
	errOOM         = errors.New("out of memory")
	errWorkerPanic = errors.New("gc worker panic")
	errDeadline    = errors.New("phase passed its deadline")
)

// guard converts a panic raised by the runtime during one operation into
// an error, so a collector failure is counted instead of crashing the
// run: an out-of-memory panic, a contained GC worker panic, or anything
// else (a corrupt heap can make a load run off the arena).
func guard(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if wp, ok := r.(*gcwork.WorkerPanic); ok {
		*err = fmt.Errorf("%w: %v", errWorkerPanic, wp.Value)
		return
	}
	if s, ok := r.(string); ok && strings.Contains(s, "out of memory") {
		*err = fmt.Errorf("%w: %s", errOOM, s)
		return
	}
	*err = fmt.Errorf("panic: %v", r)
}

// op is one measured operation: when it ended (since its phase's
// origin), how long it took and the bytes it allocated (0 if it failed).
type op struct {
	end, lat time.Duration
	bytes    int64
}

// tally is one mutator's record of the measured phase.
type tally struct {
	attempted, failed int64
	ops               []op
	late              []int64 // ns the open-loop generator woke after a due time
	service           []int64 // ns each measured operation took once started
	firstErr          error
	incorrect         bool // a stamp mismatch or unexplained panic
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
	if !errors.Is(err, errOOM) && !errors.Is(err, errWorkerPanic) && !errors.Is(err, errDeadline) {
		t.incorrect = true
	}
}

// reserve sizes t's records for n operations, so recording them makes
// no garbage that would move the process's peak resident set.
func (t *tally) reserve(n int) {
	t.ops = slices.Grow(t.ops, n)
	t.late = slices.Grow(t.late, n)
	t.service = slices.Grow(t.service, n)
}

// merge adds o's record to t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.ops = append(t.ops, o.ops...)
	t.late = append(t.late, o.late...)
	t.service = append(t.service, o.service...)
	t.incorrect = t.incorrect || o.incorrect
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// driver is one mutator's workload: it builds the set-up live set, runs
// a phase of operations, and walks its live set to check it.
type driver interface {
	setup() error
	// run performs one phase, recording into t, and stops early after a
	// failure.
	run(ph *phase, t *tally)
	walk() error
}

// phase describes one run phase, shared by all mutators.
type phase struct {
	origin time.Time // op end times are taken from here
	// ops is how many operations a mutator is expected to perform, to
	// size its records up front.
	ops int

	// Open loop: requests [0, n) are due at epoch + i*interval, and
	// mutator k serves the requests i ≡ k (mod mutators).
	epoch    time.Time
	interval time.Duration
	n        int
	mutators int
	// Closed loop: each mutator allocates at least bytes.
	bytes int64
	// A phase stops at its deadline, counting the rest as failed.
	deadline time.Time
}

// --- request driver -------------------------------------------------------------

type reqDriver struct {
	h      heapCtx
	idx    int
	gen    *reqGen
	plan   reqPlan
	shadow []uint64 // id of the object in each table slot
	nextID uint64

	wait  time.Duration // Blocked sleep argument and last wake-up, so the
	woke  time.Time     // sleep closure below allocates nothing per call
	sleep func()
}

func newReqDriver(m *lxr.Mutator, seed uint64, idx int, p reqParams, tm *callTimer) *reqDriver {
	d := &reqDriver{
		h:      heapCtx{m: m, seed: seed, tm: tm},
		idx:    idx,
		gen:    newReqGen(p, seed, idx),
		shadow: make([]uint64, p.tableSlots),
		nextID: uint64(idx+1) << 40,
	}
	d.sleep = func() { sleepExact(d.wait); d.woke = time.Now() }
	return d
}

// sleepExact blocks the calling thread in nanosleep for d. Go's own
// timers wake an idle process at millisecond granularity, which would
// make the generator's lateness, not the runtime, most of a request's
// latency; nanosleep wakes within tens of microseconds.
func sleepExact(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func (d *reqDriver) id() uint64 { d.nextID++; return d.nextID }

// place installs the fresh object o (no allocation since it was made)
// in table slot s and cross-links it with its partner slot s^1. The
// object it replaces loses both of its referrers and dies.
func (d *reqDriver) place(s int, o lxr.Ref, id uint64) {
	h := &d.h
	if p := h.get(s ^ 1); !p.IsNil() {
		h.store(o, 1, p)
		h.store(p, 1, o)
	}
	h.put(s, o)
	d.shadow[s] = id
}

func (d *reqDriver) setup() (err error) {
	defer guard(&err)
	d.h.newTable(len(d.shadow))
	for s := range d.shadow {
		id := d.id()
		d.place(s, d.h.newObj(typeReq, d.gen.initWords(), id), id)
	}
	return nil
}

// checkSlot verifies the object in table slot s and its partner link.
func (d *reqDriver) checkSlot(s int) error {
	h := &d.h
	o := h.get(s)
	if err := h.check(o, d.shadow[s], "table object"); err != nil {
		return err
	}
	return h.check(h.load(o, 1), d.shadow[s^1], "partner link")
}

// serve performs one request.
func (d *reqDriver) serve(pl *reqPlan) (err error) {
	defer guard(&err)
	h, m := &d.h, d.h.m
	first := d.nextID + 1
	for j, w := range pl.words {
		id := d.id()
		o := h.newObj(typeReq, int(w), id)
		if s := pl.survive[j]; s >= 0 {
			d.place(int(s), o, id)
			continue
		}
		h.store(o, 0, m.Roots[rootChain])
		m.Roots[rootChain] = o
	}
	// Read the request's objects back, newest first.
	cur := m.Roots[rootChain]
	for j := len(pl.words) - 1; j >= 0; j-- {
		if pl.survive[j] >= 0 {
			continue
		}
		if err := h.check(cur, first+uint64(j), "request object"); err != nil {
			return err
		}
		cur = h.load(cur, 0)
	}
	m.Roots[rootChain] = 0
	if !cur.IsNil() {
		return &errCorrupt{where: "request chain longer than built"}
	}
	for _, s := range pl.reads {
		if err := d.checkSlot(int(s)); err != nil {
			return err
		}
	}
	if s := int(pl.restore); s >= 0 {
		h.store(h.get(s), 1, h.get(s^1))
	}
	return nil
}

func (d *reqDriver) run(ph *phase, t *tally) {
	m := d.h.m
	t.reserve(ph.ops)
	for i := d.idx; i < ph.n; i += ph.mutators {
		d.gen.next(&d.plan)
		due := ph.epoch.Add(time.Duration(i) * ph.interval)
		// A request is issued when it is due and its latency is timed from
		// then, so a pause, a backlog or the generator's own late wake-up
		// charges every request queued behind it. The lateness is also
		// recorded apart.
		if d.wait = time.Until(due); d.wait > 0 {
			m.Blocked(d.sleep)
			t.late = append(t.late, int64(d.woke.Sub(due)))
		}
		start := time.Now()
		err := d.serve(&d.plan)
		end := time.Now()
		t.attempted++
		t.service = append(t.service, int64(end.Sub(start)))
		if err == nil && end.After(ph.deadline) {
			err = fmt.Errorf("%w at request %d of %d", errDeadline, i, ph.n)
		}
		if err != nil {
			t.fail(err)
			// The heap may no longer be trustworthy: stop, and count
			// every request this mutator still had due as failed.
			rest := int64((ph.n - 1 - i) / ph.mutators)
			t.attempted += rest
			t.failed += rest
			t.ops = append(t.ops, op{end: end.Sub(ph.origin), lat: end.Sub(due)})
			return
		}
		t.ops = append(t.ops, op{end: end.Sub(ph.origin), lat: end.Sub(due), bytes: reqBytes(&d.plan)})
		if d.h.tm != nil {
			d.h.tm.request(m, start, end)
		}
	}
}

// reqBytes is the heap a request allocates.
func reqBytes(pl *reqPlan) int64 {
	var b int64
	for _, w := range pl.words {
		b += int64(objBytes(refSlots, int(w)))
	}
	return b
}

func (d *reqDriver) walk() (err error) {
	defer guard(&err)
	for s := range d.shadow {
		if err := d.checkSlot(s); err != nil {
			return err
		}
	}
	return nil
}

// --- batch driver ---------------------------------------------------------------

// cluster is the benchmark's record of one table cluster: node i carries
// id base+i, nodes link through slot 0 (the last back to the head when
// the cluster is a ring), and the head's slot 1 points at node link of
// the partner cluster.
type cluster struct {
	base uint64
	n    int
	ring bool
	link int
}

type batchDriver struct {
	h      heapCtx
	idx    int
	gen    *batchGen
	plan   batchPlan
	shadow []cluster
	nextID uint64
}

func newBatchDriver(m *lxr.Mutator, seed uint64, idx int, p batchParams, tm *callTimer) *batchDriver {
	return &batchDriver{
		h:      heapCtx{m: m, seed: seed, tm: tm},
		idx:    idx,
		gen:    newBatchGen(p, seed, idx),
		shadow: make([]cluster, p.tableSlots),
		nextID: uint64(idx+1) << 40,
	}
}

// build allocates the plan's cluster, left in root slot rootHead, and
// returns its record.
func (d *batchDriver) build(pl *batchPlan) cluster {
	h, m := &d.h, d.h.m
	c := cluster{base: d.nextID, n: len(pl.words), ring: pl.ring}
	d.nextID += uint64(c.n)
	for j, w := range pl.words {
		o := h.newObj(typeNode, int(w), c.base+uint64(j))
		if j == 0 {
			m.Roots[rootHead] = o
		} else {
			h.store(m.Roots[rootTail], 0, o)
		}
		m.Roots[rootTail] = o
	}
	if c.ring {
		h.store(m.Roots[rootTail], 0, m.Roots[rootHead])
	}
	m.Roots[rootTail] = 0
	return c
}

// place installs the cluster in rootHead into table slot s and
// cross-links the heads of s and its partner s^1. The cluster it
// replaces loses every referrer from outside itself: a chain dies by
// reference counting, a ring as cyclic garbage.
func (d *batchDriver) place(s int, c cluster) {
	h := &d.h
	head := h.m.Roots[rootHead]
	if p := h.get(s ^ 1); !p.IsNil() {
		h.store(head, 1, p)
		h.store(p, 1, head)
		d.shadow[s^1].link = 0
	}
	h.put(s, head)
	d.shadow[s] = c
	h.m.Roots[rootHead] = 0
}

// nodeAt walks i nodes along the ring from head.
func (d *batchDriver) nodeAt(head lxr.Ref, i int) lxr.Ref {
	for ; i > 0; i-- {
		head = d.h.load(head, 0)
	}
	return head
}

// checkCluster walks the cluster at head and verifies every node.
func (d *batchDriver) checkCluster(head lxr.Ref, c cluster, where string) error {
	h := &d.h
	cur := head
	for j := 0; j < c.n; j++ {
		if err := h.check(cur, c.base+uint64(j), where); err != nil {
			return err
		}
		cur = h.load(cur, 0)
	}
	if (c.ring && cur != head) || (!c.ring && !cur.IsNil()) {
		return &errCorrupt{want: c.base, where: where + ": cluster does not end where built"}
	}
	return nil
}

// checkSlot verifies the cluster in table slot s and its partner link.
func (d *batchDriver) checkSlot(s int) error {
	h := &d.h
	c := d.shadow[s]
	head := h.get(s)
	if err := d.checkCluster(head, c, "table cluster"); err != nil {
		return err
	}
	p := d.shadow[s^1]
	return h.check(h.load(head, 1), p.base+uint64(c.link), "partner link")
}

func (d *batchDriver) setup() (err error) {
	defer guard(&err)
	d.h.newTable(len(d.shadow))
	for s := range d.shadow {
		d.gen.cluster(&d.plan)
		d.place(s, d.build(&d.plan))
	}
	return nil
}

// step performs one batch step.
func (d *batchDriver) step(pl *batchPlan) (err error) {
	defer guard(&err)
	h := &d.h
	c := d.build(pl)
	if err := d.checkCluster(h.m.Roots[rootHead], c, "new cluster"); err != nil {
		return err
	}
	if s := int(pl.survive); s >= 0 {
		d.place(s, c)
	}
	h.m.Roots[rootHead] = 0
	for _, st := range pl.stores {
		s := int(st.slot)
		c := d.shadow[s]
		head := h.get(s)
		if st.cross {
			p := d.shadow[s^1]
			b := int(st.b) % p.n
			h.store(head, 1, d.nodeAt(h.get(s^1), b))
			d.shadow[s].link = b
			continue
		}
		a := 1 + (int(st.a)-1)%(c.n-1)
		var to lxr.Ref
		switch {
		case c.ring:
			to = d.nodeAt(head, int(st.b)%c.n)
		case a < c.n-1:
			to = d.nodeAt(head, a+1+int(st.b)%(c.n-1-a))
		}
		h.store(d.nodeAt(head, a), 1, to)
	}
	for _, s := range pl.reads {
		if err := d.checkSlot(int(s)); err != nil {
			return err
		}
	}
	return nil
}

func (d *batchDriver) run(ph *phase, t *tally) {
	t.reserve(ph.ops)
	var done int64
	for done < ph.bytes {
		d.gen.next(&d.plan)
		b := clusterBytes(d.plan.words)
		start := time.Now()
		err := d.step(&d.plan)
		end := time.Now()
		done += b
		t.attempted++
		if err == nil && end.After(ph.deadline) {
			err = fmt.Errorf("%w with %d of %d bytes done", errDeadline, done, ph.bytes)
		}
		if err != nil {
			t.fail(err)
			// Count the steps left undone, at the mean step size so far.
			if rest := (ph.bytes - done) * t.attempted / done; rest > 0 {
				t.attempted += rest
				t.failed += rest
			}
			t.ops = append(t.ops, op{end: end.Sub(ph.origin), lat: end.Sub(start)})
			return
		}
		t.ops = append(t.ops, op{end: end.Sub(ph.origin), lat: end.Sub(start), bytes: b})
		if d.h.tm != nil {
			d.h.tm.request(d.h.m, start, end)
		}
	}
}

// clusterBytes is the heap a cluster takes.
func clusterBytes(words []int32) int64 {
	var b int64
	for _, w := range words {
		b += int64(objBytes(refSlots, int(w)))
	}
	return b
}

func (d *batchDriver) walk() (err error) {
	defer guard(&err)
	for s := range d.shadow {
		if err := d.checkSlot(s); err != nil {
			return err
		}
	}
	return nil
}

// --- sessions -------------------------------------------------------------------

// session is one runtime with its mutators, each on its own goroutine,
// stepping through set-up, the warm-up phase, the measured phase and
// the final walk in lockstep with the controlling goroutine: at each
// gate every mutator parks (its running token released, so collections
// proceed) until the controller opens the gate.
type session struct {
	rt      *lxr.Runtime
	tallies []tally // measured phase, per mutator
	broken  []error // set-up or warm-up failure per mutator

	ready  sync.WaitGroup // mutators reach the next gate
	exit   sync.WaitGroup
	gates  [numGates]chan struct{}
	phases [numGates]*phase // the phase each gate starts
	stop   bool             // set before a gate opens: deregister instead
}

// Gates between the steps every mutator goroutine takes.
const (
	gateWarm    = iota // set-up done → warm-up phase
	gateMeasure        // warm-up done → measured phase
	gateWalk           // measured phase done → final walk
	numGates
)

// startSession registers mutators on rt and builds their live sets; it
// returns once set-up is complete on every mutator.
func startSession(rt *lxr.Runtime, mutators int, mk func(m *lxr.Mutator, idx int) driver) *session {
	s := &session{
		rt:      rt,
		tallies: make([]tally, mutators),
		broken:  make([]error, mutators),
	}
	for i := range s.gates {
		s.gates[i] = make(chan struct{})
	}
	s.ready.Add(mutators)
	s.exit.Add(mutators)
	for i := 0; i < mutators; i++ {
		go s.mutator(i, mk)
	}
	s.ready.Wait()
	return s
}

// open starts phase ph (nil for the walk) at gate g and waits until
// every mutator has reached the next gate.
func (s *session) open(g int, ph *phase) {
	s.phases[g] = ph
	s.ready.Add(len(s.tallies))
	close(s.gates[g])
	s.ready.Wait()
}

// close deregisters the mutators without running anything more; the
// session must be parked at gate g.
func (s *session) close(g int) {
	s.stop = true
	close(s.gates[g])
	s.exit.Wait()
}

// await parks the mutator at gate g and reports whether to go on.
func (s *session) await(m *lxr.Mutator, g int) bool {
	s.ready.Done()
	m.Blocked(func() { <-s.gates[g] })
	return !s.stop
}

func (s *session) mutator(i int, mk func(m *lxr.Mutator, idx int) driver) {
	defer s.exit.Done()
	m := s.rt.RegisterMutator(numRoots)
	defer m.Deregister()
	d := mk(m, i)
	s.broken[i] = d.setup()
	if !s.await(m, gateWarm) {
		return
	}
	if s.broken[i] == nil {
		var warm tally
		d.run(s.phases[gateWarm], &warm)
		s.broken[i] = warm.firstErr
	}
	if !s.await(m, gateMeasure) {
		return
	}
	t := &s.tallies[i]
	if s.broken[i] != nil {
		t.attempted++
		t.fail(s.broken[i])
	} else {
		d.run(s.phases[gateMeasure], t)
	}
	if !s.await(m, gateWalk) {
		return
	}
	if t.firstErr == nil {
		if err := d.walk(); err != nil {
			t.fail(err)
		}
	}
	s.ready.Done()
}
