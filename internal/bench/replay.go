package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"time"

	"hlfi/internal/fault"
	"hlfi/internal/llfi"
	"hlfi/internal/telemetry"
)

// ReplayMeasurement records one attempt-level comparison of full
// re-execution against snapshot fast-forward replay. `make bench`
// serializes it to BENCH_replay.json.
type ReplayMeasurement struct {
	Benchmark          string  `json:"benchmark"`
	Level              string  `json:"level"`
	Category           string  `json:"category"`
	Attempts           int     `json:"attempts"`
	Stride             uint64  `json:"snapshot_stride"`
	Snapshots          int     `json:"snapshots"`
	GoldenInstrs       uint64  `json:"golden_instrs"`
	FullNsPerAttempt   float64 `json:"full_ns_per_attempt"`
	ReplayNsPerAttempt float64 `json:"replay_ns_per_attempt"`
	Speedup            float64 `json:"speedup"`
	SkippedInstrPct    float64 `json:"skipped_instr_pct"`
}

// MeasureReplay times n LLFI injection attempts on one benchmark twice
// — full re-execution from instruction zero versus fast-forward replay
// from golden-run snapshots — drawing identical seeded triggers in both
// arms so the two loops do exactly the same logical work. Each arm is
// run twice and the faster pass is kept, the usual guard against a
// one-off scheduling stall polluting the ratio.
func MeasureReplay(name string, n int, seed int64) (*ReplayMeasurement, error) {
	p, err := Build(name)
	if err != nil {
		return nil, err
	}
	full, err := llfi.New(p.Prep, fault.CatAll)
	if err != nil {
		return nil, err
	}
	replay, err := llfi.New(p.Prep, fault.CatAll)
	if err != nil {
		return nil, err
	}
	// Same auto-stride shape the study uses (see core.ReplayConfig).
	stride := full.Golden.Instrs / 64
	if stride < 512 {
		stride = 512
	}
	snaps, err := llfi.CaptureSnapshots(p.Prep, stride)
	if err != nil {
		return nil, err
	}
	stats := &telemetry.ReplayStats{}
	replay.UseSnapshots(snaps, stats)

	arm := func(inj *llfi.Injector) time.Duration {
		best := time.Duration(0)
		for pass := 0; pass < 2; pass++ {
			start := time.Now()
			for i := 0; i < n; i++ {
				rng := rand.New(rand.NewSource(seed + int64(i)))
				inj.InjectOne(rng)
			}
			if d := time.Since(start); pass == 0 || d < best {
				best = d
			}
		}
		return best
	}
	fullD := arm(full)
	replayD := arm(replay)

	m := &ReplayMeasurement{
		Benchmark:          name,
		Level:              fault.LevelIR.String(),
		Category:           fault.CatAll.String(),
		Attempts:           n,
		Stride:             stride,
		Snapshots:          len(snaps),
		GoldenInstrs:       full.Golden.Instrs,
		FullNsPerAttempt:   float64(fullD.Nanoseconds()) / float64(n),
		ReplayNsPerAttempt: float64(replayD.Nanoseconds()) / float64(n),
		Speedup:            float64(fullD) / float64(replayD),
	}
	if tot := stats.SkippedInstrs() + stats.ReplayedInstrs(); tot > 0 {
		m.SkippedInstrPct = 100 * float64(stats.SkippedInstrs()) / float64(tot)
	}
	return m, nil
}

// WriteJSON writes the measurement as indented JSON.
func (m *ReplayMeasurement) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// String renders a one-line summary for logs.
func (m *ReplayMeasurement) String() string {
	return fmt.Sprintf("%s/%s/%s: %d attempts, replay %.2fx faster (%.0f ns vs %.0f ns per attempt; %.1f%% of instructions skipped, %d snapshots at stride %d)",
		m.Benchmark, m.Level, m.Category, m.Attempts, m.Speedup,
		m.ReplayNsPerAttempt, m.FullNsPerAttempt, m.SkippedInstrPct, m.Snapshots, m.Stride)
}
