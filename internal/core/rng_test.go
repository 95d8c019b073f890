package core

import (
	"math/rand"
	"testing"

	"hlfi/internal/fault"
)

// TestStreamDisciplines pins the one RNG discipline to its committed
// definition: every attempt of a cell draws from a single
// rand.NewSource(seed) stream, consumed in attempt order, however many
// values each attempt takes, and a contained panic names that seed as
// its reproducer. The committed study outputs are this stream.
func TestStreamDisciplines(t *testing.T) {
	const seed = 12345
	var draws [][]uint64
	var metrics CellMetrics
	c := &Campaign{Prog: syntheticProg(), Level: fault.LevelIR, Category: fault.CatAll,
		N: 40, Seed: seed, SimFaultLimit: -1, Metrics: &metrics,
		injectorOverride: func() (func(*rand.Rand) fault.Outcome, uint64, error) {
			return func(rng *rand.Rand) fault.Outcome {
				k := len(draws)
				got := make([]uint64, k%3+1) // attempts take 1, 2 or 3 values
				for i := range got {
					got[i] = rng.Uint64()
				}
				draws = append(draws, got)
				if k == 7 {
					panic("synthetic simulator fault")
				}
				return fault.OutcomeBenign
			}, 1, nil
		}}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	want := rand.New(rand.NewSource(seed))
	for k, got := range draws {
		for i, v := range got {
			if w := want.Uint64(); v != w {
				t.Fatalf("attempt %d draw %d = %d, want %d (shared-stream discipline broken)", k, i, v, w)
			}
		}
	}
	if len(metrics.SimFaults) != 1 || metrics.SimFaults[0].Attempt != 7 || metrics.SimFaults[0].Seed != seed {
		t.Fatalf("sim faults = %+v, want attempt 7 reproduced by the campaign seed %d", metrics.SimFaults, seed)
	}
}

// TestCrossPathRNGOracle is the cross-path oracle: a cell run through
// RunStudy draws exactly the stream Run draws on the cell's
// derived seed, CellSeed(study seed, key). A stub injector records the
// first value drawn per attempt on both paths, and both recordings
// must match the stream predicted from rand.NewSource alone, so a new
// execution path (shard or fleet workers) cannot drift from it.
func TestCrossPathRNGOracle(t *testing.T) {
	p, err := BuildProgram("tiny.c", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	const studySeed = 77
	key := CellKey{Prog: p.Name, Level: fault.LevelIR, Category: fault.CatAll}
	record := func(draws *[]uint64) func() (func(*rand.Rand) fault.Outcome, uint64, error) {
		return func() (func(*rand.Rand) fault.Outcome, uint64, error) {
			return func(rng *rand.Rand) fault.Outcome {
				*draws = append(*draws, rng.Uint64())
				return fault.OutcomeBenign
			}, 1, nil
		}
	}
	check := func(path string, draws []uint64) {
		t.Helper()
		if len(draws) != 16 {
			t.Fatalf("%s made %d attempts, want 16", path, len(draws))
		}
		oracle := rand.New(rand.NewSource(CellSeed(studySeed, key)))
		for k, got := range draws {
			if want := oracle.Uint64(); got != want {
				t.Fatalf("%s attempt %d drew %d, want %d from the cell's one stream", path, k, got, want)
			}
		}
	}

	var runDraws []uint64
	c := &Campaign{Prog: p, Level: key.Level, Category: key.Category,
		N: 16, Seed: CellSeed(studySeed, key), injectorOverride: record(&runDraws)}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	check("Run", runDraws)

	var studyDraws []uint64
	hookInjector(t, key.Level, key.Category, record(&studyDraws))
	if _, err := RunStudy(StudyConfig{Programs: []*Program{p}, N: 16, Seed: studySeed,
		Cells: []CellKey{key}, Parallel: 4}); err != nil {
		t.Fatal(err)
	}
	check("RunStudy", studyDraws)
}
