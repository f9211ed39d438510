//go:build race

package mem

import "sync/atomic"

// zeroPrivate under the race detector: the defensive stale-reference
// probes ZeroPrivate's contract permits are value-benign but are still
// data races by the memory model, so race-instrumented builds use
// word-atomic stores — the suite stays detector-clean by construction
// while normal builds get the bulk memclr (private_norace.go).
func (a *Arena) zeroPrivate(w, n int) {
	for end := w + n; w < end; w++ {
		atomic.StoreUint64(&a.words[w], 0)
	}
}

// copyPrivate under the race detector is Copy's word-atomic loop, for
// the same reason zeroPrivate is; normal builds store the destination
// with plain stores (private_norace.go).
func (a *Arena) copyPrivate(dst, src Address, n int) { a.Copy(dst, src, n) }
