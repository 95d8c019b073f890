// Package sched provides the bounded worker pool that runs whole
// campaign cells concurrently. Cells of a study are independent given
// their per-cell seeds, so the scheduler only has to bound concurrency,
// cancel on the first hard error, and let the caller merge results
// deterministically (tasks write into index-addressed slots; nothing
// here depends on completion order).
package sched

import (
	"context"
	"runtime"
	"sync"
)

// Task is one unit of schedulable work. The context is cancelled after
// any task in the same Run returns a non-nil error; long tasks may poll
// it, short ones (a campaign cell) can ignore it.
type Task func(ctx context.Context) error

// Run executes tasks over at most workers goroutines and waits for them.
// Tasks are dispatched in index order; with workers == 1 this degenerates
// to the exact serial loop. The first task error cancels the pool:
// running tasks finish, queued ones are skipped. The returned error is
// the recorded error with the lowest task index (deterministic regardless
// of scheduling), or the parent context's error if it was cancelled with
// no task error.
func Run(ctx context.Context, workers int, tasks []Task) error {
	if len(tasks) == 0 {
		return ctx.Err()
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	errs := make([]error, len(tasks))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(tasks) || ctx.Err() != nil {
					return
				}
				if err := tasks[i](ctx); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// Budget is the study-wide goroutine budget: enough to keep every
// processor busy with a little slack for cells blocked on their final
// merge, and never so small that a single-core box cannot interleave a
// handful of cells (goroutines are cheap; only running threads are
// bounded by GOMAXPROCS).
func Budget() int {
	b := 2 * runtime.GOMAXPROCS(0)
	if b < 4 {
		b = 4
	}
	return b
}
