package sched_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"hlfi/internal/sched"
)

// TestRunSerialOrder: one worker must execute tasks in index order.
func TestRunSerialOrder(t *testing.T) {
	var order []int
	tasks := make([]sched.Task, 10)
	for i := range tasks {
		i := i
		tasks[i] = func(context.Context) error {
			order = append(order, i)
			return nil
		}
	}
	if err := sched.Run(context.Background(), 1, tasks); err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("serial order broken: %v", order)
		}
	}
	if len(order) != len(tasks) {
		t.Fatalf("ran %d of %d tasks", len(order), len(tasks))
	}
}

// TestRunBoundedConcurrency: never more than `workers` tasks in flight,
// and every task runs exactly once.
func TestRunBoundedConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak, ran atomic.Int64
	tasks := make([]sched.Task, 50)
	for i := range tasks {
		tasks[i] = func(context.Context) error {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			ran.Add(1)
			inFlight.Add(-1)
			return nil
		}
	}
	if err := sched.Run(context.Background(), workers, tasks); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != int64(len(tasks)) {
		t.Fatalf("ran %d of %d tasks", ran.Load(), len(tasks))
	}
	if peak.Load() > workers {
		t.Fatalf("concurrency peaked at %d > %d workers", peak.Load(), workers)
	}
}

// TestRunCancelOnError: the first hard error skips all queued tasks and
// is reported back.
func TestRunCancelOnError(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	tasks := make([]sched.Task, 10)
	for i := range tasks {
		i := i
		tasks[i] = func(context.Context) error {
			ran = append(ran, i)
			if i == 3 {
				return boom
			}
			return nil
		}
	}
	err := sched.Run(context.Background(), 1, tasks)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if len(ran) != 4 {
		t.Fatalf("tasks after the failure still ran: %v", ran)
	}
}

// TestRunLowestIndexError: when several concurrent tasks fail, the
// reported error is the one with the lowest index among those recorded,
// regardless of completion order.
func TestRunLowestIndexError(t *testing.T) {
	var release sync.WaitGroup
	release.Add(1)
	errAt := func(i int) error { return errors.New(string(rune('a' + i))) }
	tasks := make([]sched.Task, 4)
	for i := range tasks {
		i := i
		tasks[i] = func(context.Context) error {
			release.Wait() // hold every task until all four are in flight
			return errAt(i)
		}
	}
	done := make(chan error, 1)
	go func() { done <- sched.Run(context.Background(), len(tasks), tasks) }()
	release.Done()
	if err := <-done; err == nil || err.Error() != "a" {
		t.Fatalf("err = %v, want the index-0 error %q", err, "a")
	}
}

// TestRunParentCancel: a cancelled parent context surfaces when no task
// errored.
func TestRunParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := sched.Run(ctx, 2, []sched.Task{func(context.Context) error { return nil }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBudget(t *testing.T) {
	if b := sched.Budget(); b < 4 {
		t.Fatalf("Budget() = %d, want >= 4", b)
	}
}
