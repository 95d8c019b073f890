package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"hlfi/internal/fault"
)

// This file holds the campaign fault-tolerance layer: attempt-level
// panic containment and the per-cell wall-clock watchdog. The study
// injects faults into simulated subjects; this layer makes the study
// runner itself survive the same failure classes — an unanticipated
// simulator panic must not discard hours of completed cells, and one
// pathological cell must not stall the pool.

// ErrSimFault matches campaign errors caused by a contained simulator
// panic (use errors.As with *SimFaultError for the reproducing seed).
var ErrSimFault = errors.New("simulator fault")

// ErrDeadline matches campaign errors caused by the per-cell wall-clock
// watchdog. RunStudy treats it as a soft skip: the cell is marked
// degraded-and-skipped instead of stalling the pool.
var ErrDeadline = errors.New("cell deadline exceeded")

// SimFault records one contained simulator panic. It is counted
// separately from the paper's four outcomes (a sim fault says the
// simulator is broken, not the subject), and carries everything needed
// to reproduce the panic deterministically.
type SimFault struct {
	Prog     string
	Level    fault.Level
	Category fault.Category
	// Attempt is the zero-based attempt index within the cell.
	Attempt int
	// Seed reproduces the panic: it is the campaign seed, whose one
	// random stream is replayed up to Attempt.
	Seed int64
	// Panic is the stringified panic value; Stack the (truncated)
	// goroutine stack at recovery.
	Panic string
	Stack string
}

func (f SimFault) String() string {
	return fmt.Sprintf("%s/%s/%s attempt %d (seed %d): %s",
		f.Prog, f.Level, f.Category, f.Attempt, f.Seed, f.Panic)
}

// SimFaultError is the typed error surfaced when a cell's sim-fault
// policy is exhausted (fail-fast, or more than Limit contained panics).
type SimFaultError struct {
	Fault SimFault
	// Limit is the cell's tolerance when it was exceeded (0 = fail-fast).
	Limit int
}

func (e *SimFaultError) Error() string {
	if e.Limit <= 0 {
		return fmt.Sprintf("%v: %s", ErrSimFault, e.Fault)
	}
	return fmt.Sprintf("%v (limit %d exceeded): %s", ErrSimFault, e.Limit, e.Fault)
}

// Unwrap makes errors.Is(err, ErrSimFault) hold.
func (e *SimFaultError) Unwrap() error { return ErrSimFault }

// DeadlineError is the typed error surfaced when a cell exceeds its
// wall-clock deadline.
type DeadlineError struct {
	Prog      string
	Level     fault.Level
	Category  fault.Category
	Deadline  time.Duration
	Elapsed   time.Duration
	Attempts  int
	Activated int
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("%v: %s/%s/%s after %v (deadline %v, %d activated in %d attempts)",
		ErrDeadline, e.Prog, e.Level, e.Category,
		e.Elapsed.Round(time.Millisecond), e.Deadline, e.Activated, e.Attempts)
}

// Unwrap makes errors.Is(err, ErrDeadline) hold.
func (e *DeadlineError) Unwrap() error { return ErrDeadline }

// maxStack bounds the stack capture attached to a SimFault record.
const maxStack = 4096

// simFault builds the record for one recovered panic.
func (c *Campaign) simFault(attempt int, panicValue any) SimFault {
	stack := debug.Stack()
	if len(stack) > maxStack {
		stack = stack[:maxStack]
	}
	return SimFault{
		Prog:     c.Prog.Name,
		Level:    c.Level,
		Category: c.Category,
		Attempt:  attempt,
		Seed:     c.Seed,
		Panic:    fmt.Sprint(panicValue),
		Stack:    string(stack),
	}
}

// tolerates reports whether the policy allows `count` sim faults in one
// cell: SimFaultLimit < 0 tolerates any number, 0 none (fail-fast), and
// K > 0 up to K.
func tolerates(limit, count int) bool {
	return limit < 0 || count <= limit
}

// deadlineExceeded checks the per-cell watchdog. The deadline
// complements the instruction-budget hang detection inside the
// simulators: that bounds a single attempt, this bounds the whole cell.
func (c *Campaign) deadlineExceeded(start time.Time) bool {
	return c.Deadline > 0 && time.Since(start) > c.Deadline
}

func (c *Campaign) deadlineError(res *CellResult, elapsed time.Duration) error {
	return &DeadlineError{
		Prog: c.Prog.Name, Level: c.Level, Category: c.Category,
		Deadline: c.Deadline, Elapsed: elapsed,
		Attempts: res.Attempts, Activated: res.Activated(),
	}
}
