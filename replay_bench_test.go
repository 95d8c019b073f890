// Benchmarks and the BENCH_replay.json emitter for the golden-run
// snapshot fast-forward replay engine. BenchmarkInjectionAttempt times
// a single injection attempt with and without snapshots on identical
// seeded triggers; BenchmarkCampaignReplay does the same at campaign
// granularity (including the one-time snapshot capture, amortized over
// the campaign's attempts).
//
//	go test -bench=BenchmarkInjectionAttempt -benchtime=200x
//	HLFI_BENCH_REPLAY=BENCH_replay.json go test -run '^TestWriteReplayBench$'
package hlfi_test

import (
	"math/rand"
	"os"
	"testing"

	"hlfi/internal/bench"
	"hlfi/internal/compile/irc"
	"hlfi/internal/core"
	"hlfi/internal/fault"
	"hlfi/internal/llfi"
	"hlfi/internal/telemetry"
)

// replayBenchProgram picks the workload for the attempt benchmarks:
// quantumm has the longest golden run of the six, so it is where replay
// matters most — and where a correctness bug would be loudest.
func replayBenchProgram(b *testing.B) *core.Program {
	b.Helper()
	for _, p := range allPrograms(b) {
		if p.Name == "quantumm" {
			return p
		}
	}
	b.Fatal("quantumm missing from benchmark set")
	return nil
}

// BenchmarkInjectionAttempt compares one LLFI injection attempt under
// full re-execution (sub-bench "full") against snapshot fast-forward
// replay ("replay") and the compile-to-closure engine ("compiled").
// All arms draw triggers from identically seeded rngs, so per-op times
// are directly comparable; the snapshot capture and the engine compile
// happen once in setup, mirroring a campaign where they are amortized
// over N attempts.
func BenchmarkInjectionAttempt(b *testing.B) {
	p := replayBenchProgram(b)
	full, err := llfi.New(p.Prep, fault.CatAll)
	if err != nil {
		b.Fatal(err)
	}
	replay, err := llfi.New(p.Prep, fault.CatAll)
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := llfi.New(p.Prep, fault.CatAll)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := irc.Compile(p.Prep)
	if err != nil {
		b.Fatal(err)
	}
	compiled.UseCompiled(cp)
	stride := full.Golden.Instrs / 64
	if stride < 512 {
		stride = 512
	}
	snaps, err := llfi.CaptureSnapshots(p.Prep, stride)
	if err != nil {
		b.Fatal(err)
	}
	stats := &telemetry.ReplayStats{}
	replay.UseSnapshots(snaps, stats)

	arm := func(inj *llfi.Injector) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i) + 1))
				inj.InjectOne(rng)
			}
		}
	}
	b.Run("full", arm(full))
	b.Run("replay", arm(replay))
	b.Run("compiled", arm(compiled))
	if stats.Hits() == 0 {
		b.Fatal("replay arm never hit a snapshot")
	}
}

// BenchmarkCampaignReplay runs a whole campaign cell with snapshots off
// ("off") and on ("on"). Unlike BenchmarkInjectionAttempt this includes
// the golden capture run, so it reports the net campaign-level win.
func BenchmarkCampaignReplay(b *testing.B) {
	p := replayBenchProgram(b)
	n := injectionsPerCell()
	arm := func(replay *core.ReplayConfig) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := &core.Campaign{
					Prog: p, Level: fault.LevelIR, Category: fault.CatAll,
					N: n, Seed: int64(i) + 1, Replay: replay,
				}
				if _, err := c.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n), "injections/op")
		}
	}
	b.Run("off", arm(nil))
	b.Run("on", arm(&core.ReplayConfig{Stats: &telemetry.ReplayStats{}}))
}

// TestWriteReplayBench emits BENCH_replay.json: set HLFI_BENCH_REPLAY
// to the output path (as `make bench` does) or the test skips. It also
// gates the engine's performance contract: replay must be at least 2x
// faster per attempt than full re-execution.
func TestWriteReplayBench(t *testing.T) {
	path := os.Getenv("HLFI_BENCH_REPLAY")
	if path == "" {
		t.Skip("set HLFI_BENCH_REPLAY=<path> to write the replay benchmark JSON")
	}
	m, err := bench.MeasureReplay("quantumm", injectionsPerCell(), 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := m.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	t.Log(m.String())
	if m.Speedup < 2 {
		t.Errorf("replay speedup %.2fx is below the 2x contract", m.Speedup)
	}
}
