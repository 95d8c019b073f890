package core

import (
	"hlfi/internal/llfi"
	"hlfi/internal/pinfi"
)

// IRView and ASMView expose the campaign's injector construction to the
// golden-sharing tests of package core_test, which need the benchmark
// corpus (internal/bench imports core, so they cannot live in package
// core).
func (c *Campaign) IRView() (*llfi.Injector, error) { return c.irView() }

func (c *Campaign) ASMView() (*pinfi.Injector, error) { return c.asmView() }

// SetAttemptHook arms testAttemptHook for the per-attempt oracle of
// package core_test, which needs the benchmark corpus too; nil disarms
// it. Each call gets the attempt's LLFI or PINFI result, the other nil.
func SetAttemptHook(h func(c *Campaign, attempt int, draws []uint64, ir *llfi.Result, asm *pinfi.Result)) {
	if h == nil {
		testAttemptHook = nil
		return
	}
	testAttemptHook = func(c *Campaign, attempt int, draws []uint64, ar attemptResult) {
		h(c, attempt, draws, ar.ir, ar.asm)
	}
}
