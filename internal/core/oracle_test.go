package core_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hlfi/internal/bench"
	"hlfi/internal/core"
	"hlfi/internal/fault"
	"hlfi/internal/llfi"
	"hlfi/internal/pinfi"
	"hlfi/internal/telemetry"
)

// replayedDraws is a random source that hands out one attempt's
// recorded draws again, in order.
type replayedDraws struct {
	draws []uint64
	next  int
	over  bool // asked for more draws than were recorded
}

func (r *replayedDraws) Uint64() uint64 {
	if r.next == len(r.draws) {
		r.over = true
		return 0
	}
	r.next++
	return r.draws[r.next-1]
}

func (r *replayedDraws) Int63() int64 { return int64(r.Uint64()) }

func (r *replayedDraws) Seed(int64) {}

// oracleAttempt is what an attempt must reproduce exactly on the
// reference injectors, plus how far it ran and how it ended.
type oracleAttempt struct {
	outcome  fault.Outcome
	output   string
	exit     int64
	err      string
	record   string // trigger and injection record, without the RNG
	executed uint64
	end      telemetry.AttemptEnd
}

func irAttempt(r *llfi.Result) oracleAttempt {
	inj := r.Injection
	return oracleAttempt{r.Outcome, string(r.Output), r.Exit, fmt.Sprint(r.Err),
		fmt.Sprintf("trigger %d: %v %v %p bit %d %#x->%#x at %d", r.Trigger, inj.Happened, inj.Activated, inj.Target, inj.Bit, inj.OrigVal, inj.FaultyVal, inj.InstrIndex),
		r.Executed, r.End}
}

func asmAttempt(r *pinfi.Result) oracleAttempt {
	inj := r.Injection
	return oracleAttempt{r.Outcome, string(r.Output), r.Exit, fmt.Sprint(r.Err),
		fmt.Sprintf("trigger %d: %v %v %s@%d bit %d %#x->%#x", r.Trigger, inj.Happened, inj.Activated, inj.TargetDesc, inj.InstrIdx, inj.Bit, inj.OrigVal, inj.FaultyVal),
		r.Executed, r.End}
}

// TestAttemptOracle checks every attempt of a fast-policy study of the
// six benchmarks, one at a time: it re-runs the attempt on the
// reference injectors (interpreter and simulator, from the start, to
// the end) with the random values the attempt drew, and requires the
// same outcome, output, exit code, error and injection record, and the
// same draws, all of them. A compiled attempt may end short of the
// reference run only by converging, when it must be Benign, or by
// finding a hang cycle, when it must be a Hang. Aggregate oracles such
// as TestStudyMatrix cannot see two compensating per-attempt errors in
// one cell; this one can.
func TestAttemptOracle(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("re-runs about 2,400 attempts on the reference engines")
	}
	progs, err := bench.BuildAll()
	must(t, err)
	t.Cleanup(func() { core.SetAttemptHook(nil) })
	for _, seed := range []int64{1, 2} {
		type cellKey struct {
			prog  string
			level fault.Level
			cat   fault.Category
		}
		// A cell runs on one goroutine, so each reference injector serves
		// one goroutine at a time; the maps and counts are shared.
		var mu sync.Mutex
		irRefs := map[cellKey]*llfi.Injector{}
		asmRefs := map[cellKey]*pinfi.Injector{}
		attempts, converged, cycled, bad := 0, 0, 0, 0
		core.SetAttemptHook(func(c *core.Campaign, attempt int, draws []uint64, ir *llfi.Result, asm *pinfi.Result) {
			key := cellKey{c.Prog.Name, c.Level, c.Category}
			refCell := &core.Campaign{Prog: c.Prog, Level: c.Level, Category: c.Category, Variant: c.Variant}
			src := &replayedDraws{draws: draws}
			rng := rand.New(src)
			var fast, ref oracleAttempt
			if ir != nil {
				mu.Lock()
				inj, err := irRefs[key], error(nil)
				if inj == nil {
					inj, err = refCell.IRView()
					irRefs[key] = inj
				}
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				fast, ref = irAttempt(ir), irAttempt(inj.InjectOne(rng))
			} else {
				mu.Lock()
				inj, err := asmRefs[key], error(nil)
				if inj == nil {
					inj, err = refCell.ASMView()
					asmRefs[key] = inj
				}
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				fast, ref = asmAttempt(asm), asmAttempt(inj.InjectOne(rng))
			}
			mu.Lock()
			defer mu.Unlock()
			attempts++
			what := fmt.Sprintf("seed %d %v attempt %d", seed, key, attempt)
			switch fast.end {
			case telemetry.EndConverged:
				converged++
			case telemetry.EndCycled:
				cycled++
			}
			var problem string
			switch {
			case fast.outcome != ref.outcome || fast.output != ref.output || fast.exit != ref.exit || fast.err != ref.err || fast.record != ref.record:
				problem = fmt.Sprintf("differs from the reference:\nreference %+v\nfast      %+v", ref, fast)
			case src.over || src.next != len(draws):
				problem = fmt.Sprintf("the reference drew %d of the %d recorded values (over %v)", src.next, len(draws), src.over)
			case fast.end == telemetry.EndConverged && fast.outcome != fault.OutcomeBenign:
				problem = fmt.Sprintf("a %v attempt converged", fast.outcome)
			case fast.end == telemetry.EndCycled && fast.outcome != fault.OutcomeHang:
				problem = fmt.Sprintf("a %v attempt cycled", fast.outcome)
			case fast.executed > ref.executed || (fast.end == telemetry.EndRanOut && fast.executed != ref.executed):
				problem = fmt.Sprintf("executed %d, reference %d (%v)", fast.executed, ref.executed, fast.end)
			}
			if problem != "" {
				if bad++; bad <= 5 {
					t.Errorf("%s: %s", what, problem)
				}
			}
		})
		stats := &telemetry.ReplayStats{}
		_, err := core.RunStudy(core.StudyConfig{Programs: progs, N: 20, Seed: seed, Parallel: 2,
			Replay: &core.ReplayConfig{Stats: stats}, Compiled: &core.CompiledConfig{}})
		must(t, err)
		core.SetAttemptHook(nil)
		t.Logf("seed %d: %d attempts, %d converged, %d cycled, %d snapshot hits", seed, attempts, converged, cycled, stats.Hits())
		if bad > 0 {
			t.Fatalf("seed %d: %d of %d attempts differ from the reference", seed, bad, attempts)
		}
		if converged == 0 || cycled == 0 || stats.Hits() == 0 {
			t.Fatalf("seed %d: %d converged, %d cycled, %d snapshot hits: the fast engines were not exercised", seed, converged, cycled, stats.Hits())
		}
	}
}
