//go:build !race

package mem

import "sync/atomic"

// zeroPrivate clears n words starting at word index w with plain stores.
// The range loop over a subslice compiles to a runtime memclr — roughly
// an order of magnitude faster than the word-atomic store loop — which
// is why allocator-private block zeroing routes here. See
// Arena.ZeroPrivate for the privacy contract that makes this sound.
func (a *Arena) zeroPrivate(w, n int) {
	s := a.words[w : w+n]
	for i := range s {
		s[i] = 0
	}
}

// copyPrivate copies n bytes from src to dst. Source words keep atomic
// loads (a plain MOV on amd64: other workers may still update slots of
// the source object in place); destination words take plain stores,
// which on amd64 avoids the XCHG — a full fence — that atomic.StoreUint64
// compiles to. See Arena.CopyPrivate for the privacy contract that makes
// this sound.
func (a *Arena) copyPrivate(dst, src Address, n int) {
	dw, sw, nw := int(dst>>WordLog), int(src>>WordLog), n/WordSize
	d := a.words[dw : dw+nw]
	s := a.words[sw : sw+nw]
	for i := range d {
		d[i] = atomic.LoadUint64(&s[i])
	}
}
