package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"hlfi/internal/compile/irc"
	"hlfi/internal/compile/mc"
	"hlfi/internal/core"
	"hlfi/internal/fault"
	"hlfi/internal/llfi"
	"hlfi/internal/pinfi"
)

// CompiledArm is one level's interpreter-vs-compiled attempt timing.
type CompiledArm struct {
	InterpNsPerAttempt   float64 `json:"interp_ns_per_attempt"`
	CompiledNsPerAttempt float64 `json:"compiled_ns_per_attempt"`
	Speedup              float64 `json:"speedup"`
}

// CompiledMeasurement records the attempt-level and campaign-level
// comparison of the interpreters against the compiled execution engines.
// `make bench` serializes it to BENCH_compiled.json; CI gates on
// IR.Speedup (the BenchmarkInjectionAttempt shape).
type CompiledMeasurement struct {
	Benchmark string      `json:"benchmark"`
	Category  string      `json:"category"`
	Attempts  int         `json:"attempts"`
	IR        CompiledArm `json:"ir"`
	ASM       CompiledArm `json:"asm"`
	// Campaign wall-clock: one full cell (IR, CatAll) with the engines
	// off and on, including injector construction.
	CampaignInterpMs   float64 `json:"campaign_interp_ms"`
	CampaignCompiledMs float64 `json:"campaign_compiled_ms"`
	CampaignSpeedup    float64 `json:"campaign_speedup"`
}

// bestOfTwo times n identical attempts twice and keeps the faster pass,
// the usual guard against a one-off scheduling stall polluting a ratio.
func bestOfTwo(n int, attempt func(i int)) time.Duration {
	best := time.Duration(0)
	for pass := 0; pass < 2; pass++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			attempt(i)
		}
		if d := time.Since(start); pass == 0 || d < best {
			best = d
		}
	}
	return best
}

// MeasureCompiled times n injection attempts per level on one benchmark
// twice — on the interpreter and on the compiled engine — drawing
// identical seeded triggers in both arms, then runs one campaign cell
// each way for the wall-clock comparison. Snapshots stay off in the
// attempt arms so the ratio isolates the engine swap.
func MeasureCompiled(name string, n int, seed int64) (*CompiledMeasurement, error) {
	p, err := Build(name)
	if err != nil {
		return nil, err
	}

	m := &CompiledMeasurement{
		Benchmark: name,
		Category:  fault.CatAll.String(),
		Attempts:  n,
	}

	// IR level: interpreter vs compile-to-closure engine.
	irInterp, err := llfi.New(p.Prep, fault.CatAll)
	if err != nil {
		return nil, err
	}
	irComp, err := llfi.New(p.Prep, fault.CatAll)
	if err != nil {
		return nil, err
	}
	ircp, err := irc.Compile(p.Prep)
	if err != nil {
		return nil, fmt.Errorf("%s: irc compile: %w", name, err)
	}
	irComp.UseCompiled(ircp)
	attemptArm := func(inj *llfi.Injector) time.Duration {
		return bestOfTwo(n, func(i int) {
			rng := rand.New(rand.NewSource(seed + int64(i)))
			inj.InjectOne(rng)
		})
	}
	iD := attemptArm(irInterp)
	cD := attemptArm(irComp)
	m.IR = CompiledArm{
		InterpNsPerAttempt:   float64(iD.Nanoseconds()) / float64(n),
		CompiledNsPerAttempt: float64(cD.Nanoseconds()) / float64(n),
		Speedup:              float64(iD) / float64(cD),
	}

	// ASM level: simulator vs pre-decoded engine.
	asmInterp, err := pinfi.New(p.Asm, p.Prep.Layout.Image, p.Prep.Layout.Base, fault.CatAll)
	if err != nil {
		return nil, err
	}
	asmComp, err := pinfi.New(p.Asm, p.Prep.Layout.Image, p.Prep.Layout.Base, fault.CatAll)
	if err != nil {
		return nil, err
	}
	mccp, err := mc.Compile(p.Asm, p.Prep.Layout.Image, p.Prep.Layout.Base)
	if err != nil {
		return nil, fmt.Errorf("%s: mc compile: %w", name, err)
	}
	asmComp.UseCompiled(mccp)
	asmArm := func(inj *pinfi.Injector) time.Duration {
		return bestOfTwo(n, func(i int) {
			rng := rand.New(rand.NewSource(seed + int64(i)))
			inj.InjectOne(rng)
		})
	}
	aiD := asmArm(asmInterp)
	acD := asmArm(asmComp)
	m.ASM = CompiledArm{
		InterpNsPerAttempt:   float64(aiD.Nanoseconds()) / float64(n),
		CompiledNsPerAttempt: float64(acD.Nanoseconds()) / float64(n),
		Speedup:              float64(aiD) / float64(acD),
	}

	// Campaign wall-clock: one cell each way, engine compile included.
	campaign := func(compiled *core.CompiledConfig) (time.Duration, error) {
		start := time.Now()
		c := &core.Campaign{
			Prog: p, Level: fault.LevelIR, Category: fault.CatAll,
			N: n, Seed: seed, Compiled: compiled,
		}
		if _, err := c.Run(); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	offD, err := campaign(nil)
	if err != nil {
		return nil, err
	}
	onD, err := campaign(&core.CompiledConfig{})
	if err != nil {
		return nil, err
	}
	m.CampaignInterpMs = float64(offD.Nanoseconds()) / 1e6
	m.CampaignCompiledMs = float64(onD.Nanoseconds()) / 1e6
	m.CampaignSpeedup = float64(offD) / float64(onD)
	return m, nil
}

// WriteJSON writes the measurement as indented JSON.
func (m *CompiledMeasurement) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// String renders a one-line summary for logs.
func (m *CompiledMeasurement) String() string {
	return fmt.Sprintf("%s/%s: %d attempts, compiled %.2fx faster at IR (%.0f ns vs %.0f ns), %.2fx at ASM (%.0f ns vs %.0f ns); campaign %.2fx (%.0f ms vs %.0f ms)",
		m.Benchmark, m.Category, m.Attempts,
		m.IR.Speedup, m.IR.CompiledNsPerAttempt, m.IR.InterpNsPerAttempt,
		m.ASM.Speedup, m.ASM.CompiledNsPerAttempt, m.ASM.InterpNsPerAttempt,
		m.CampaignSpeedup, m.CampaignCompiledMs, m.CampaignInterpMs)
}
