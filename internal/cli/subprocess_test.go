package cli

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestWorkerCommandLifecycle: WorkerCommand forwards SIGTERM on context
// cancellation and RunWorkerPool isolates worker failures, labelling
// each without cancelling siblings.
func TestWorkerCommandLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// One worker exits 0, one exits 1, one sleeps until SIGTERM. Every
	// worker touches a sentinel at startup (the sleeper after installing
	// its trap) so the test can cancel without racing worker startup.
	// Only the sleeper runs under the cancelled context: a fast worker
	// that has written its sentinel but not yet exited when the cancel
	// lands would get its SIGTERM too, and os/exec then reports
	// ctx.Err() even though the worker exits 0.
	dir := t.TempDir()
	ready := func(i int) string { return filepath.Join(dir, fmt.Sprintf("ready-%d", i)) }
	fast := context.Background()
	cmds := []*exec.Cmd{
		WorkerCommand(fast, "/bin/sh", "-c", "trap 'exit 0' TERM; : >"+ready(0)+"; exit 0"),
		WorkerCommand(fast, "/bin/sh", "-c", "trap 'exit 1' TERM; : >"+ready(1)+"; exit 1"),
		WorkerCommand(ctx, "/bin/sh", "-c",
			// The background sleep detaches from stdio so the orphan it
			// becomes after the trap fires cannot hold pipes open.
			"trap 'exit 7' TERM; : >"+ready(2)+"; sleep 30 >/dev/null 2>&1 & wait"),
	}
	go func() {
		// Cancel only after every worker has started and the sleeper has
		// its trap in place: the pool must SIGTERM the sleeper rather than
		// hang for the full sleep, and the fast workers must report their
		// own exit status.
		for i := 0; i < len(cmds); {
			if _, err := os.Stat(ready(i)); err == nil {
				i++
				continue
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	failures := RunWorkerPool(cmds, func(i int) string {
		return []string{"ok-worker", "bad-worker", "slow-worker"}[i]
	})
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want bad-worker and slow-worker", failures)
	}
	joined := strings.Join(failures, "; ")
	if !strings.Contains(joined, "bad-worker") || !strings.Contains(joined, "slow-worker") {
		t.Errorf("failure labels missing: %v", failures)
	}
}
