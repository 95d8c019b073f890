// Worker-subprocess lifecycle for the local scale-out supervisor, the
// fiserve -spawn-workers convenience mode: it spawns one binary per
// worker, forwards cooperative SIGTERM on cancellation, bounds how long
// a terminated worker may linger, and collects per-worker failures
// without letting one dead worker take down the rest.
package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// workerWaitDelay bounds how long a cancelled worker may linger between
// the forwarded SIGTERM and the supervisor escalating to SIGKILL.
const workerWaitDelay = 10 * time.Second

// WorkerCommand builds the exec.Cmd the supervisor uses for a worker
// subprocess: stdout discarded (the report comes from the merge or the
// coordinator, never from workers), stderr passed through, cooperative
// SIGTERM on context cancellation (so workers flush checkpoints or
// finish leases cleanly), and a bounded WaitDelay before escalation.
func WorkerCommand(ctx context.Context, exe string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = workerWaitDelay
	return cmd
}

// RunWorkerPool starts every command, waits for all of them, and
// returns one failure message per worker that exited non-nil (labelled
// by label(i)). A failed worker never cancels its siblings: fault
// isolation between workers is the point of running them as processes.
func RunWorkerPool(cmds []*exec.Cmd, label func(i int) string) []string {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
	)
	for i, cmd := range cmds {
		i, cmd := i, cmd
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cmd.Run(); err != nil {
				mu.Lock()
				failures = append(failures, fmt.Sprintf("%s: %v", label(i), err))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return failures
}
