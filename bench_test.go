// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section, plus ablation benches for the design
// choices DESIGN.md calls out.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Each bench regenerates its artifact and reports it via b.Log, plus
// domain metrics via b.ReportMetric (injections/op, instructions/run).
// The paper's sample size is 1000 injections per cell; the benches
// default to a faster setting and honour HLFI_N for paper-scale runs:
//
//	HLFI_N=1000 go test -bench=BenchmarkFigure3 -benchtime=1x
package hlfi_test

import (
	"io"
	"os"
	"strconv"
	"testing"

	"hlfi/internal/bench"
	"hlfi/internal/codegen"
	"hlfi/internal/core"
	"hlfi/internal/fault"
	"hlfi/internal/interp"
	"hlfi/internal/machine"
	"hlfi/internal/telemetry"
)

// injectionsPerCell reads HLFI_N (default 200).
func injectionsPerCell() int {
	if s := os.Getenv("HLFI_N"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 200
}

// buildAll compiles the six benchmarks once per process.
var programsCache []*core.Program

func allPrograms(b *testing.B) []*core.Program {
	b.Helper()
	if programsCache == nil {
		progs, err := bench.BuildAll()
		if err != nil {
			b.Fatal(err)
		}
		programsCache = progs
	}
	return programsCache
}

// BenchmarkFigure3 regenerates the aggregate crash/SDC/benign breakdown
// (LLFI vs PINFI, category "all") for all six benchmarks.
func BenchmarkFigure3(b *testing.B) {
	progs := allPrograms(b)
	n := injectionsPerCell()
	for i := 0; i < b.N; i++ {
		st, err := core.RunStudy(core.StudyConfig{
			Programs: progs,
			N:        n,
			Seed:     1,
			Cells:    core.CanonicalCells(progs, []fault.Category{fault.CatAll}),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + st.RenderFigure3())
		}
	}
	b.ReportMetric(float64(n*len(progs)*2), "injections/op")
}

// BenchmarkTableIV regenerates the dynamic candidate-instruction counts
// per category for both tools (profiling only, no injections).
func BenchmarkTableIV(b *testing.B) {
	progs := allPrograms(b)
	for i := 0; i < b.N; i++ {
		st, err := core.RunStudy(core.StudyConfig{
			Programs: progs,
			N:        1,
			Seed:     1,
			Cells:    core.CanonicalCells(progs, []fault.Category{fault.CatAll}),
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + st.RenderTableIV())
		}
	}
}

// BenchmarkFigure4 regenerates the per-category SDC comparison with 95%
// confidence intervals (subfigures a-e), and BenchmarkTableV the crash
// percentages; both need the full category cross-product, so they share
// one study per run.
func BenchmarkFigure4(b *testing.B) {
	progs := allPrograms(b)
	n := injectionsPerCell()
	for i := 0; i < b.N; i++ {
		st, err := core.RunStudy(core.StudyConfig{Programs: progs, N: n, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + st.RenderFigure4())
		}
	}
	b.ReportMetric(float64(n*len(progs)*2*len(fault.Categories)), "injections/op")
}

// BenchmarkTableV regenerates the crash-percentage table.
func BenchmarkTableV(b *testing.B) {
	progs := allPrograms(b)
	n := injectionsPerCell()
	for i := 0; i < b.N; i++ {
		st, err := core.RunStudy(core.StudyConfig{Programs: progs, N: n, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + st.RenderTableV())
			b.Log("\n" + st.RenderSummary())
		}
	}
	b.ReportMetric(float64(n*len(progs)*2*len(fault.Categories)), "injections/op")
}

// BenchmarkStudyScheduler compares the serial study path against the
// cell-level scheduler on the full 60-cell cross-product. Both arms run
// the identical per-cell sequential streams, so the results are
// byte-identical and the benchmark isolates pure scheduling: on a
// multi-core box the parallel arm's ns/op drops roughly with
// min(4, GOMAXPROCS). The telemetry aggregator rides along and reports
// aggregate throughput on the last iteration.
func BenchmarkStudyScheduler(b *testing.B) {
	progs := allPrograms(b)
	n := injectionsPerCell() / 4
	if n < 10 {
		n = 10
	}
	for _, arm := range []struct {
		name     string
		parallel int
	}{
		{"serial", 1},
		{"parallel4", 4},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				agg := telemetry.NewAggregator()
				st, err := core.RunStudy(core.StudyConfig{
					Programs: progs,
					N:        n,
					Seed:     1,
					Parallel: arm.parallel,
					Events:   agg,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(st.Cells) == 0 {
					b.Fatal("empty study")
				}
				if i == b.N-1 {
					b.Log("\n" + agg.RenderTelemetry())
					b.ReportMetric(agg.Status().ThroughputPerSec, "injections/sec")
				}
			}
		})
	}
}

// benchOneCell runs a single campaign cell, for per-benchmark/per-level
// microbenchmarks of the injection machinery itself.
func benchOneCell(b *testing.B, name string, level fault.Level, cat fault.Category) {
	p, err := bench.Build(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &core.Campaign{Prog: p, Level: level, Category: cat, N: 25, Seed: int64(i)}
		if _, err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(25, "injections/op")
}

// BenchmarkInjectionLLFI measures IR-level injection campaign throughput.
func BenchmarkInjectionLLFI(b *testing.B) {
	benchOneCell(b, "quantumm", fault.LevelIR, fault.CatAll)
}

// BenchmarkInjectionPINFI measures assembly-level campaign throughput.
func BenchmarkInjectionPINFI(b *testing.B) {
	benchOneCell(b, "quantumm", fault.LevelASM, fault.CatAll)
}

// BenchmarkAblationGEPFolding quantifies discrepancy source #1 from the
// paper's §VII: with GEP→addressing-mode folding disabled, the assembly
// level gains explicit address arithmetic and the Table IV arithmetic
// asymmetry widens.
func BenchmarkAblationGEPFolding(b *testing.B) {
	bm, err := bench.ByName("bzip2m")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		folded, err := core.BuildProgramWithOptions("fold", bm.Source, codegen.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		unfolded, err := core.BuildProgramWithOptions("nofold", bm.Source,
			codegen.Options{FoldGEP: false, FoldLoad: true, FuseCmpBranch: true})
		if err != nil {
			b.Fatal(err)
		}
		fArith := dynCount(folded, fault.LevelASM, fault.CatArith)
		uArith := dynCount(unfolded, fault.LevelASM, fault.CatArith)
		if i == b.N-1 {
			b.Logf("bzip2m PINFI dynamic arithmetic: folding on=%d, off=%d (+%.0f%%)",
				fArith, uArith, 100*float64(uArith-fArith)/float64(fArith))
			if uArith <= fArith {
				b.Fatal("ablation had no effect")
			}
		}
	}
}

// BenchmarkAblationLoadFolding quantifies discrepancy source #3 (mov
// asymmetry): with load-operand folding disabled, the assembly level
// gains standalone load instructions.
func BenchmarkAblationLoadFolding(b *testing.B) {
	bm, err := bench.ByName("hmmerm")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		folded, err := core.BuildProgramWithOptions("fold", bm.Source, codegen.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		unfolded, err := core.BuildProgramWithOptions("nofold", bm.Source,
			codegen.Options{FoldGEP: true, FoldLoad: false, FuseCmpBranch: true})
		if err != nil {
			b.Fatal(err)
		}
		fLoad := dynCount(folded, fault.LevelASM, fault.CatLoad)
		uLoad := dynCount(unfolded, fault.LevelASM, fault.CatLoad)
		if i == b.N-1 {
			b.Logf("hmmerm PINFI dynamic loads: folding on=%d, off=%d (+%.0f%%)",
				fLoad, uLoad, 100*float64(uLoad-fLoad)/float64(fLoad))
			if uLoad <= fLoad {
				b.Fatal("ablation had no effect")
			}
		}
	}
}

// BenchmarkAblationCmpFusion quantifies compare+branch fusion. Without
// fusion every branch condition is materialized with SETcc and re-tested
// (TEST+Jcc), so the cmp category survives (TEST is still a flag setter
// before a Jcc) but the destination-register instruction stream grows.
func BenchmarkAblationCmpFusion(b *testing.B) {
	bm, err := bench.ByName("mcfm")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		fused, err := core.BuildProgramWithOptions("fuse", bm.Source, codegen.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		unfused, err := core.BuildProgramWithOptions("nofuse", bm.Source,
			codegen.Options{FoldGEP: true, FoldLoad: true, FuseCmpBranch: false})
		if err != nil {
			b.Fatal(err)
		}
		fAll := dynCount(fused, fault.LevelASM, fault.CatAll)
		uAll := dynCount(unfused, fault.LevelASM, fault.CatAll)
		if i == b.N-1 {
			b.Logf("mcfm PINFI 'all' candidates: fusion on=%d, off=%d (+%.0f%%)",
				fAll, uAll, 100*float64(uAll-fAll)/float64(fAll))
			if uAll <= fAll {
				b.Fatal("unfusing should grow the destination-register stream")
			}
		}
	}
}

// BenchmarkGoldenRuns measures raw simulator throughput for each
// benchmark at both levels (instructions per second appear as the
// instrs/op metric divided by ns/op).
func BenchmarkGoldenRuns(b *testing.B) {
	for _, p := range allPrograms(b) {
		p := p
		b.Run(p.Name+"/IR", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := interp.NewRunner(p.Prep, io.Discard).Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.IRInstrs), "instrs/op")
		})
		b.Run(p.Name+"/ASM", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := machine.New(p.Asm, p.Prep.Layout.Image, p.Prep.Layout.Base, io.Discard).Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(p.AsmInstrs), "instrs/op")
		})
	}
}

// BenchmarkCalibration runs the §VII future-work experiment on one
// benchmark: plain LLFI vs calibrated LLFI vs PINFI crash rates. The
// calibrated gap must not exceed the plain gap.
func BenchmarkCalibration(b *testing.B) {
	p, err := bench.Build("quantumm")
	if err != nil {
		b.Fatal(err)
	}
	progs := []*core.Program{p}
	cfg := core.StudyConfig{Programs: progs, Cells: core.CalibrationCells(progs), N: injectionsPerCell(), Seed: 42}
	for i := 0; i < b.N; i++ {
		st, err := core.RunStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.Log("\n" + st.RenderCalibration())
			plain, cal := st.CalibrationGaps()
			if cal > plain+1 {
				b.Fatalf("calibration widened the crash gap: %.1f -> %.1f", plain, cal)
			}
		}
	}
}

// BenchmarkPaperHotStudy is the paper-hot shape of the hlfibench
// benchmark in one process: all six programs built once, then the full
// 60-cell study at n = 40 for study seeds 1, 2 and 3 back to back, with
// snapshot replay and the compiled engines on. The attempt loops
// dominate it, so it is the profile to start a hot-path change from:
//
//	make profile   # writes cpu.out; go tool pprof -top cpu.out
func BenchmarkPaperHotStudy(b *testing.B) {
	progs := allPrograms(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for seed := int64(1); seed <= 3; seed++ {
			if _, err := core.RunStudy(core.StudyConfig{
				Programs: progs,
				N:        40,
				Seed:     seed,
				Replay:   &core.ReplayConfig{},
				Compiled: &core.CompiledConfig{},
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(3*len(progs)*10), "cells/op")
}

// dynCount is one Table IV entry of p, read from its build-time golden
// profile.
func dynCount(p *core.Program, level fault.Level, cat fault.Category) uint64 {
	return core.ProfileStudy([]*core.Program{p}, 0, 0).DynCandidates(p.Name, level, cat)
}
