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
