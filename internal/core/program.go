// Package core implements the paper's experimental methodology: it builds
// programs for both execution levels, runs seeded fault-injection
// campaigns with LLFI (IR level) and PINFI (assembly level), classifies
// outcomes, and regenerates every table and figure of the evaluation
// (Figure 3, Table IV, Figure 4, Table V).
package core

import (
	"bytes"
	"fmt"

	"hlfi/internal/codegen"
	"hlfi/internal/fault"
	"hlfi/internal/interp"
	"hlfi/internal/llfi"
	"hlfi/internal/minic"
	"hlfi/internal/pinfi"
	"hlfi/internal/x86"
)

// Program is a benchmark compiled for both levels, with verified
// fault-free equivalence between them.
type Program struct {
	Name   string
	Source string

	Prep *interp.Prepared
	Asm  *x86.Program

	GoldenOutput []byte
	GoldenExit   int64
	// Golden dynamic instruction counts at each level.
	IRInstrs  uint64
	AsmInstrs uint64
	// Golden per-instruction execution counts at each level, indexed
	// like the candidate sets (IR instruction Seq, machine instruction
	// position). Every injector and dynamic count over the program is a
	// view of these; nothing re-executes the golden run per cell.
	IRProfile  []uint64
	AsmProfile []uint64
}

// irGolden and asmGolden expose one level of the build-time golden run
// in the injectors' shape. The slices alias the Program's own.
func (p *Program) irGolden() fault.Golden {
	return fault.Golden{Output: p.GoldenOutput, Exit: p.GoldenExit, Instrs: p.IRInstrs, Profile: p.IRProfile}
}

func (p *Program) asmGolden() fault.Golden {
	return fault.Golden{Output: p.GoldenOutput, Exit: p.GoldenExit, Instrs: p.AsmInstrs, Profile: p.AsmProfile}
}

// BuildProgram compiles a minic source for both execution levels and
// verifies that the fault-free runs agree bit-for-bit. Any disagreement
// is a toolchain bug, not a valid experiment, so it is an error.
func BuildProgram(name, source string) (*Program, error) {
	return buildProgram(name, source, codegen.DefaultOptions())
}

// BuildProgramWithOptions exposes the backend folding switches for the
// ablation benchmarks.
func BuildProgramWithOptions(name, source string, opts codegen.Options) (*Program, error) {
	return buildProgram(name, source, opts)
}

func buildProgram(name, source string, opts codegen.Options) (*Program, error) {
	mod, err := minic.Compile(name, source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	prep, err := interp.Prepare(mod)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	asm, err := codegen.Lower(mod, prep.Layout, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	// The golden run of each level, profiled: the only fault-free
	// executions a study needs besides the replay cache's snapshot
	// capture.
	irG, err := llfi.RunGolden(prep)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	asmG, err := pinfi.RunGolden(asm, prep.Layout.Image, prep.Layout.Base)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if !bytes.Equal(irG.Output, asmG.Output) || irG.Exit != asmG.Exit {
		return nil, fmt.Errorf("%s: golden runs diverge between levels (IR %d bytes rc=%d, ASM %d bytes rc=%d)",
			name, len(irG.Output), irG.Exit, len(asmG.Output), asmG.Exit)
	}
	return &Program{
		Name:         name,
		Source:       source,
		Prep:         prep,
		Asm:          asm,
		GoldenOutput: irG.Output,
		GoldenExit:   irG.Exit,
		IRInstrs:     irG.Instrs,
		AsmInstrs:    asmG.Instrs,
		IRProfile:    irG.Profile,
		AsmProfile:   asmG.Profile,
	}, nil
}
