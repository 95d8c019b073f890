package hlfi_test

import (
	"math/rand"
	"testing"
	"time"

	"hlfi/internal/adaptive"
	"hlfi/internal/bench"
	"hlfi/internal/compile/irc"
	"hlfi/internal/core"
	"hlfi/internal/fault"
	"hlfi/internal/llfi"
)

// BenchmarkPerfGates enforces the two performance contracts the CI
// bench-gate job runs (make bench-gate). The compiled IR engine must be
// at least 1.5x faster per attempt than the interpreter (quantumm,
// category all, identical seeded triggers in both arms, the faster of
// two passes each). An adaptive study (eps=0.05, min=50, check=64) must
// never spend more attempts than the fixed-n study of the same cells:
// reallocation is bounded by the budget early stops donate. Speed and
// per-layer costs are measured by hlfibench, not here.
func BenchmarkPerfGates(b *testing.B) {
	p, err := bench.Build("quantumm")
	if err != nil {
		b.Fatal(err)
	}
	n := injectionsPerCell()
	for i := 0; i < b.N; i++ {
		speedup := compiledSpeedup(b, p, n)
		b.ReportMetric(speedup, "ir-compiled-speedup")
		if speedup < 1.5 {
			b.Errorf("compiled IR speedup %.2fx is below the 1.5x contract", speedup)
		}

		attempts := func(acfg *adaptive.Config) int {
			st, err := core.RunStudy(core.StudyConfig{Programs: []*core.Program{p}, N: n, Seed: 1,
				Adaptive: acfg, Replay: &core.ReplayConfig{}, Compiled: &core.CompiledConfig{}})
			if err != nil {
				b.Fatal(err)
			}
			total := 0
			for _, c := range st.Cells {
				total += c.Attempts
			}
			return total
		}
		fixed, adapt := attempts(nil), attempts(&adaptive.Config{Eps: 0.05, MinN: 50, Check: 64})
		b.ReportMetric(float64(adapt)/float64(fixed), "adaptive-attempt-ratio")
		if adapt > fixed {
			b.Errorf("adaptive study spent %d attempts, more than the fixed-n %d: the reallocation pool leaked", adapt, fixed)
		}
	}
}

// compiledSpeedup times n IR attempts on the interpreter and on the
// compiled engine, snapshots off, and returns the per-attempt ratio.
func compiledSpeedup(b *testing.B, p *core.Program, n int) float64 {
	arm := func(compiled bool) time.Duration {
		inj, err := llfi.New(p.Prep, fault.CatAll)
		if err != nil {
			b.Fatal(err)
		}
		if compiled {
			cp, err := irc.Compile(p.Prep)
			if err != nil {
				b.Fatal(err)
			}
			inj.UseCompiled(cp)
		}
		var best time.Duration
		for pass := 0; pass < 2; pass++ {
			start := time.Now()
			for i := 0; i < n; i++ {
				inj.InjectOne(rand.New(rand.NewSource(1 + int64(i))))
			}
			if d := time.Since(start); pass == 0 || d < best {
				best = d
			}
		}
		return best
	}
	return float64(arm(false)) / float64(arm(true))
}
