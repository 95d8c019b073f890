package core

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"hlfi/internal/fault"
	"hlfi/internal/telemetry"
)

// syntheticProg is enough Program for campaigns whose injector is
// overridden: only the name is consulted.
func syntheticProg() *Program { return &Program{Name: "synthetic"} }

// panicOnAttempts builds an injector override whose draw panics on the
// given zero-based call indices (sequential-stream accounting) and
// otherwise alternates benign/SDC.
func panicOnAttempts(panics ...int) func() (func(*rand.Rand) fault.Outcome, uint64, error) {
	bad := map[int]bool{}
	for _, a := range panics {
		bad[a] = true
	}
	return func() (func(*rand.Rand) fault.Outcome, uint64, error) {
		calls := 0 // fresh stream per injector construction (one per campaign)
		return func(*rand.Rand) fault.Outcome {
			k := calls
			calls++
			if bad[k] {
				panic("synthetic simulator fault")
			}
			if k%2 == 0 {
				return fault.OutcomeBenign
			}
			return fault.OutcomeSDC
		}, 42, nil
	}
}

func TestPanicContainmentSequential(t *testing.T) {
	var metrics CellMetrics
	c := &Campaign{
		Prog: syntheticProg(), Level: fault.LevelIR, Category: fault.CatAll,
		N: 10, Seed: 99, SimFaultLimit: -1, Metrics: &metrics,
		injectorOverride: panicOnAttempts(2, 5),
	}
	res, err := c.Run()
	if err != nil {
		t.Fatalf("tolerant run failed: %v", err)
	}
	if res.Activated() != 10 {
		t.Errorf("activated = %d, want 10", res.Activated())
	}
	if res.SimFaults != 2 {
		t.Errorf("SimFaults = %d, want 2", res.SimFaults)
	}
	if res.Attempts != 12 {
		t.Errorf("attempts = %d, want 12 (10 activated + 2 contained panics)", res.Attempts)
	}
	if len(metrics.SimFaults) != 2 {
		t.Fatalf("metrics recorded %d sim faults, want 2", len(metrics.SimFaults))
	}
	sf := metrics.SimFaults[0]
	if sf.Attempt != 2 || sf.Seed != 99 {
		t.Errorf("first sim fault = %+v, want attempt 2, seed 99", sf)
	}
	if !strings.Contains(sf.Panic, "synthetic simulator fault") {
		t.Errorf("panic value not captured: %q", sf.Panic)
	}
	if sf.Stack == "" {
		t.Error("stack not captured")
	}
}

func TestPanicFailFast(t *testing.T) {
	c := &Campaign{
		Prog: syntheticProg(), Level: fault.LevelASM, Category: fault.CatArith,
		N: 10, Seed: 7, // SimFaultLimit zero value: fail-fast
		injectorOverride: panicOnAttempts(3),
	}
	_, err := c.Run()
	if err == nil {
		t.Fatal("fail-fast run succeeded despite panic")
	}
	if !errors.Is(err, ErrSimFault) {
		t.Fatalf("error %v does not match ErrSimFault", err)
	}
	var sfe *SimFaultError
	if !errors.As(err, &sfe) {
		t.Fatalf("error %v is not a *SimFaultError", err)
	}
	if sfe.Fault.Attempt != 3 || sfe.Fault.Seed != 7 {
		t.Errorf("reproducing record = %+v, want attempt 3, seed 7", sfe.Fault)
	}
}

func TestPanicToleranceLimit(t *testing.T) {
	c := &Campaign{
		Prog: syntheticProg(), Level: fault.LevelIR, Category: fault.CatAll,
		N: 10, Seed: 1, SimFaultLimit: 1,
		injectorOverride: panicOnAttempts(0, 1),
	}
	_, err := c.Run()
	var sfe *SimFaultError
	if !errors.As(err, &sfe) {
		t.Fatalf("limit-1 run with 2 panics returned %v, want *SimFaultError", err)
	}
	if sfe.Limit != 1 || sfe.Fault.Attempt != 1 {
		t.Errorf("got limit %d attempt %d, want the second panic to exhaust limit 1",
			sfe.Limit, sfe.Fault.Attempt)
	}
}

func TestNotActivatedTyped(t *testing.T) {
	override := func() (func(*rand.Rand) fault.Outcome, uint64, error) {
		return func(*rand.Rand) fault.Outcome { return fault.OutcomeNotActivated }, 42, nil
	}
	c := &Campaign{
		Prog: syntheticProg(), Level: fault.LevelIR, Category: fault.CatCast,
		N: 5, Seed: 3, injectorOverride: override,
	}
	_, err := c.Run()
	if !errors.Is(err, ErrNotActivated) {
		t.Errorf("budget exhaustion returned %v, want ErrNotActivated", err)
	}
}

func TestWatchdogDeadline(t *testing.T) {
	slow := func() (func(*rand.Rand) fault.Outcome, uint64, error) {
		return func(*rand.Rand) fault.Outcome {
			time.Sleep(5 * time.Millisecond)
			return fault.OutcomeBenign
		}, 42, nil
	}
	c := &Campaign{
		Prog: syntheticProg(), Level: fault.LevelIR, Category: fault.CatAll,
		N: 1000, Seed: 1, Deadline: 15 * time.Millisecond,
		injectorOverride: slow,
	}
	_, err := c.Run()
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("slow cell returned %v, want ErrDeadline", err)
	}
	var de *DeadlineError
	if !errors.As(err, &de) {
		t.Fatalf("error %v is not a *DeadlineError", err)
	}
	if de.Attempts == 0 || de.Elapsed < c.Deadline {
		t.Errorf("deadline record = %+v, want progress before expiry", de)
	}
}

// hookInjector installs an injector override on campaigns matching the
// (level, category) pair; other cells run their real injectors.
func hookInjector(t *testing.T, level fault.Level, cat fault.Category,
	inj func() (func(*rand.Rand) fault.Outcome, uint64, error)) {
	t.Helper()
	testCampaignHook = func(c *Campaign) {
		if c.Level == level && c.Category == cat {
			c.injectorOverride = inj
		}
	}
	t.Cleanup(func() { testCampaignHook = nil })
}

const tinySrc = `
int main() {
    int s = 0;
    for (int i = 0; i < 8; i++) s += i * i;
    print_int(s);
    print_str("\n");
    return 0;
}
`

type eventCapture struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (c *eventCapture) Record(e telemetry.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func (c *eventCapture) ofType(typ string) []telemetry.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []telemetry.Event
	for _, e := range c.events {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

// TestStudySimFaultContainment: an injected simulator panic in one cell
// never terminates the study in tolerant mode; the other cells' results
// are unchanged and the panic surfaces as a sim_fault event.
func TestStudySimFaultContainment(t *testing.T) {
	p, err := BuildProgram("tiny.c", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := StudyConfig{
		Programs: []*Program{p},
		N:        10,
		Seed:     5,
		Cells:    CanonicalCells([]*Program{p}, []fault.Category{fault.CatAll}),
	}
	clean, err := RunStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}

	hookInjector(t, fault.LevelIR, fault.CatAll, panicOnAttempts(1))
	var cap eventCapture
	cfg.SimFaultLimit = -1
	cfg.Events = &cap
	faulty, err := RunStudy(cfg)
	if err != nil {
		t.Fatalf("tolerant study failed: %v", err)
	}

	asmKey := CellKey{Prog: p.Name, Level: fault.LevelASM, Category: fault.CatAll}
	if got, want := faulty.Cells[asmKey], clean.Cells[asmKey]; got == nil || *got != *want {
		t.Errorf("unhooked cell changed:\nclean  %+v\nfaulty %+v", want, got)
	}
	irKey := CellKey{Prog: p.Name, Level: fault.LevelIR, Category: fault.CatAll}
	ir := faulty.Cells[irKey]
	if ir == nil || ir.SimFaults != 1 || ir.Activated() != 10 {
		t.Errorf("hooked cell = %+v, want 10 activated with 1 contained panic", ir)
	}
	sfEvents := cap.ofType(telemetry.EventSimFault)
	if len(sfEvents) != 1 {
		t.Fatalf("got %d sim_fault events, want 1", len(sfEvents))
	}
	e := sfEvents[0]
	if e.Attempt != 1 || e.AttemptSeed != CellSeed(cfg.Seed, irKey) || e.Panic == "" {
		t.Errorf("sim_fault event = %+v, want attempt 1 with the cell seed and panic value", e)
	}

	// Fail-fast mode surfaces the typed error with the reproducing seed.
	cfg.SimFaultLimit = 0
	cfg.Events = nil
	_, err = RunStudy(cfg)
	var sfe *SimFaultError
	if !errors.As(err, &sfe) {
		t.Fatalf("fail-fast study returned %v, want *SimFaultError", err)
	}
	if sfe.Fault.Seed != CellSeed(cfg.Seed, irKey) {
		t.Errorf("fail-fast error carries seed %d, want the reproducing cell seed %d", sfe.Fault.Seed, CellSeed(cfg.Seed, irKey))
	}
}

// TestStudyDeadlineDegradedSkip: an over-deadline cell is dropped with a
// cell_deadline event; the study completes without it.
func TestStudyDeadlineDegradedSkip(t *testing.T) {
	p, err := BuildProgram("tiny.c", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	hookInjector(t, fault.LevelIR, fault.CatAll, func() (func(*rand.Rand) fault.Outcome, uint64, error) {
		return func(*rand.Rand) fault.Outcome {
			time.Sleep(25 * time.Millisecond)
			return fault.OutcomeBenign
		}, 42, nil
	})
	var cap eventCapture
	st, err := RunStudy(StudyConfig{
		Programs:     []*Program{p},
		N:            10, // the hooked IR cell needs 250ms of draws: over deadline
		Seed:         5,
		Cells:        CanonicalCells([]*Program{p}, []fault.Category{fault.CatAll}),
		CellDeadline: 100 * time.Millisecond,
		Events:       &cap,
	})
	if err != nil {
		t.Fatalf("study with one degraded cell failed: %v", err)
	}
	if st.Cells[CellKey{Prog: p.Name, Level: fault.LevelIR, Category: fault.CatAll}] != nil {
		t.Error("over-deadline cell present in results")
	}
	if len(cap.ofType(telemetry.EventCellDeadline)) == 0 {
		t.Error("no cell_deadline event emitted")
	}
}

// TestStudyNotActivatedSoftSkip: budget exhaustion skips the cell (with
// a cell_skip event) instead of failing the study.
func TestStudyNotActivatedSoftSkip(t *testing.T) {
	p, err := BuildProgram("tiny.c", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	hookInjector(t, fault.LevelIR, fault.CatAll, func() (func(*rand.Rand) fault.Outcome, uint64, error) {
		return func(*rand.Rand) fault.Outcome { return fault.OutcomeNotActivated }, 42, nil
	})
	var cap eventCapture
	st, err := RunStudy(StudyConfig{
		Programs: []*Program{p},
		N:        10,
		Seed:     5,
		Cells:    CanonicalCells([]*Program{p}, []fault.Category{fault.CatAll}),
		Events:   &cap,
	})
	if err != nil {
		t.Fatalf("study with never-activating cell failed: %v", err)
	}
	if st.Cells[CellKey{Prog: p.Name, Level: fault.LevelIR, Category: fault.CatAll}] != nil {
		t.Error("never-activating cell present in results")
	}
	skips := cap.ofType(telemetry.EventCellSkip)
	if len(skips) != 1 || !strings.Contains(skips[0].Err, "no activated faults") {
		t.Errorf("cell_skip events = %+v, want one carrying ErrNotActivated", skips)
	}
}

// TestStudyCancellation: a cancelled context aborts the study
// cooperatively — partial results come back alongside ErrAborted and the
// stream ends in study_abort.
func TestStudyCancellation(t *testing.T) {
	p, err := BuildProgram("tiny.c", tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any cell runs: everything is "queued"
	var cap eventCapture
	st, err := RunStudyContext(ctx, StudyConfig{
		Programs: []*Program{p},
		N:        10,
		Seed:     5,
		Cells:    CanonicalCells([]*Program{p}, []fault.Category{fault.CatAll}),
		Events:   &cap,
	})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("cancelled study returned %v, want ErrAborted", err)
	}
	if st == nil {
		t.Fatal("cancelled study returned no partial results")
	}
	if len(cap.ofType(telemetry.EventStudyAbort)) != 1 {
		t.Error("no study_abort event emitted")
	}
	if len(cap.ofType(telemetry.EventStudyDone)) != 0 {
		t.Error("study_done emitted for an aborted study")
	}
}
