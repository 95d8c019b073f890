package core

import (
	"sync"
	"sync/atomic"
)

// CompiledConfig enables the compiled execution engines — the
// compile-to-closure IR engine (internal/compile/irc) and the
// pre-decoded machine-dispatch engine (internal/compile/mc) — for a
// study's injection attempts. One config is shared by every cell: the
// program cache behind it is keyed by (program, level), like the
// snapshot cache, so each program is compiled once and shared by all
// five categories and any number of concurrent cells.
//
// The engines are observationally invisible: outcomes, activation
// status, output bytes, RNG streams, and checkpoint/merge bytes are
// identical to the interpreters under the same seeds. A program the
// compilers cannot lower falls back to the interpreter silently (the
// fallback is byte-identical by definition); Fallbacks is the only
// trace.
type CompiledConfig struct {
	once  sync.Once
	cache *compiledCache
}

// Signature renders the compiled-engine configuration for checkpoint
// headers, where it records the creating run's policy as provenance. A
// nil config (compiled off) renders as "off".
func (cc *CompiledConfig) Signature() string {
	if cc == nil {
		return "off"
	}
	return "on"
}

func (cc *CompiledConfig) ensure() *compiledCache {
	cc.once.Do(func() {
		cc.cache = &compiledCache{entries: make(map[snapKey]*compEntry)}
	})
	return cc.cache
}

// Fallbacks returns the number of programs that failed to compile and
// stayed on the interpreter (0 on a nil config).
func (cc *CompiledConfig) Fallbacks() uint64 {
	if cc == nil {
		return 0
	}
	return cc.ensure().fallbacks.Load()
}

// compEntry is one (program, level) cache slot. ready is closed once
// prog, the level's compiled program, is final; a nil prog means the
// program did not compile and attempts fall back to the interpreter.
// Compiled programs are immutable, so any number of cells share them
// concurrently.
type compEntry struct {
	ready chan struct{}
	prog  any
}

// compiledCache compiles programs lazily, once per (program, level).
// The compiler runs on the first requesting goroutine; concurrent
// requesters block on the entry's ready channel. Compiled programs are
// small (closures over the static instruction stream), so unlike the
// snapshot cache there is no memory budget or eviction.
type compiledCache struct {
	mu        sync.Mutex
	entries   map[snapKey]*compEntry
	fallbacks atomic.Uint64
}

// lookup returns (entry, true) to wait on, or a fresh unready entry the
// caller must fill, already registered under k.
func (cc *compiledCache) lookup(k snapKey) (*compEntry, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if e, ok := cc.entries[k]; ok {
		return e, true
	}
	e := &compEntry{ready: make(chan struct{})}
	cc.entries[k] = e
	return e, false
}

// cachedProgram returns p compiled at one level by t, compiling it on
// a miss; ok is false when the program did not compile.
func cachedProgram[S snapshot, C any](cfg *CompiledConfig, p *Program, t levelTools[S, C]) (cp C, ok bool) {
	cc := cfg.ensure()
	e, hit := cc.lookup(snapKey{prog: p.Name, level: t.level})
	if !hit {
		if cp, err := t.compile(p); err == nil {
			e.prog = cp
		} else {
			cc.fallbacks.Add(1)
		}
		close(e.ready)
	}
	<-e.ready
	cp, ok = e.prog.(C)
	return cp, ok
}
