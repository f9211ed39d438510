package main

import (
	"fmt"

	"lxr"
)

// Root slots of a benchmark mutator.
const (
	rootTable = 0 // mature-table spine
	rootChain = 1 // newest object of the request in flight
	rootHead  = 2 // head of the cluster being built
	rootTail  = 3 // newest node of the cluster being built
	numRoots  = 4
)

// Type IDs the benchmark allocates with.
const (
	typeSpine = 1
	typeChunk = 2
	typeReq   = 3
	typeNode  = 4
)

// chunkSlots is the fan-out of one table chunk: a medium object just
// under half a block, so chunks never land in the large object space.
const chunkSlots = 2040

// tableOverhead is the heap taken by a table's spine and chunks.
func tableOverhead(slots int) int {
	chunks := (slots + chunkSlots - 1) / chunkSlots
	return objBytes(chunks, 0) + chunks*objBytes(chunkSlots, 0)
}

// errCorrupt marks an object whose stamp does not match what the
// benchmark wrote: the program's output is wrong.
type errCorrupt struct {
	want, gotID, gotSum uint64
	where               string
}

func (e *errCorrupt) Error() string {
	return fmt.Sprintf("%s: object %#x read back as id %#x checksum %#x", e.where, e.want, e.gotID, e.gotSum)
}

// heapCtx is one mutator's view of the simulated heap: its mutator, the
// run seed the stamps derive from, and the mature table living in it.
// The table is a spine object (root slot rootTable) whose slots point at
// chunk objects whose slots hold the long-lived objects.
type heapCtx struct {
	m     *lxr.Mutator
	seed  uint64
	slots int

	tm *callTimer // nil unless the run is traced
}

// newTable allocates an empty table of slots slots.
func (h *heapCtx) newTable(slots int) {
	h.slots = slots
	chunks := (slots + chunkSlots - 1) / chunkSlots
	h.m.Roots[rootTable] = h.alloc(typeSpine, chunks, 0)
	for i := 0; i < chunks; i++ {
		c := h.alloc(typeChunk, chunkSlots, 0)
		h.store(h.m.Roots[rootTable], i, c)
	}
}

// get loads the object in table slot s.
func (h *heapCtx) get(s int) lxr.Ref {
	c := h.load(h.m.Roots[rootTable], s/chunkSlots)
	return h.load(c, s%chunkSlots)
}

// put stores ref into table slot s.
func (h *heapCtx) put(s int, ref lxr.Ref) {
	c := h.load(h.m.Roots[rootTable], s/chunkSlots)
	h.store(c, s%chunkSlots, ref)
}

// newObj allocates an object with two reference slots and the given
// payload, stamped with id. Like every allocation it is a safepoint:
// raw references held across it may be stale afterwards.
func (h *heapCtx) newObj(typeID uint8, words int, id uint64) lxr.Ref {
	o := h.alloc(typeID, refSlots, 8*words)
	sum := checksum(h.seed, id)
	h.m.WritePayload(o, 0, id)
	h.m.WritePayload(o, 1, sum)
	if w := h.m.PayloadWords(o); w > 2 {
		h.m.WritePayload(o, w-1, ^sum)
	}
	return o
}

// check verifies that o carries the stamp of object id.
func (h *heapCtx) check(o lxr.Ref, id uint64, where string) error {
	if o.IsNil() {
		return &errCorrupt{want: id, where: where}
	}
	gotID, gotSum := h.m.ReadPayload(o, 0), h.m.ReadPayload(o, 1)
	sum := checksum(h.seed, id)
	if gotID != id || gotSum != sum {
		return &errCorrupt{want: id, gotID: gotID, gotSum: gotSum, where: where}
	}
	if w := h.m.PayloadWords(o); w > 2 && h.m.ReadPayload(o, w-1) != ^sum {
		return &errCorrupt{want: id, gotID: gotID, gotSum: h.m.ReadPayload(o, w-1), where: where + " (tail)"}
	}
	return nil
}

// alloc, store and load are the benchmark's only calls that allocate or
// move references; when the run is traced they time a sample of calls.
func (h *heapCtx) alloc(typeID uint8, refs, payload int) lxr.Ref {
	if h.tm == nil {
		return h.m.Alloc(typeID, refs, payload)
	}
	return h.tm.alloc(h.m, typeID, refs, payload)
}

func (h *heapCtx) store(src lxr.Ref, i int, val lxr.Ref) {
	if h.tm == nil {
		h.m.Store(src, i, val)
		return
	}
	h.tm.store(h.m, src, i, val)
}

func (h *heapCtx) load(src lxr.Ref, i int) lxr.Ref {
	if h.tm == nil {
		return h.m.Load(src, i)
	}
	return h.tm.load(h.m, src, i)
}
