// Command fiserve runs the fault-injection study as a service: a
// network coordinator that expands one study submission into its
// experiment's cell list and hands cells out as leases over HTTP, plus a
// worker mode that joins a coordinator, executes leased cells, and
// streams their results back.
//
//	fiserve -n 1000 -once                     # coordinator, render on convergence
//	fiserve -worker -join http://host:8344    # worker (run anywhere)
//	fiserve -n 1000 -once -spawn-workers 3    # single-machine fleet
//
// The coordinator owns durability and fault tolerance: leases expire
// when a worker stops heartbeating (crash, hang, partition), expired or
// failed cells are retried with exponential backoff, duplicate
// completions are deduped, and a cell that exhausts its retry budget
// degrades to a typed skip instead of wedging the study. Every resolved
// cell is appended to a durable checkpoint. The study runs through the
// same driver as ficompare's, with the fleet as its executor, and the
// report renders the study that driver returns — byte-identical to the
// single-process ficompare run, no matter how much worker churn the
// campaign survived. Restarting the coordinator with the same
// -checkpoint resumes the remainder.
//
// /metrics and /statusz on the same listener serve the live fleet
// dashboard (leases, per-worker liveness, retry counts, queue depth);
// POST /drain stops granting leases for a graceful shutdown. See
// docs/fleet.md for the protocol and the failure matrix.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hlfi/internal/adaptive"
	"hlfi/internal/cli"
	"hlfi/internal/core"
	"hlfi/internal/fleet"
	"hlfi/internal/obs"
	"hlfi/internal/obs/trace"
	"hlfi/internal/telemetry"
	"hlfi/internal/warehouse"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "fiserve:", err)
		os.Exit(1)
	}
}

// run keeps the uncancellable entry point used by the in-process tests.
func run(args []string) error {
	return runCtx(context.Background(), args, nil)
}

// runCtx is the real entry point. onReady, when non-nil, receives the
// coordinator's bound listen address once it is serving (the in-process
// tests bind :0 and need the resolved port).
func runCtx(ctx context.Context, args []string, onReady func(addr string)) error {
	fs := flag.NewFlagSet("fiserve", flag.ContinueOnError)
	var (
		worker = fs.Bool("worker", false, "run as a fleet worker instead of the coordinator")
		join   = fs.String("join", "", "worker: coordinator base URL (http://host:port)")
		name   = fs.String("name", "", "worker: stable name reported to the coordinator (default: hostname-pid)")

		listen     = fs.String("listen", "127.0.0.1:8344", "coordinator listen address (fleet protocol + /metrics + /statusz)")
		experiment = fs.String("experiment", "all", "fig3|fig4|table5|calibration|all — report rendered once the study converges")
		n          = fs.Int("n", 1000, "activated injections per cell")
		seed       = fs.Int64("seed", 1, "study seed")
		benches    = fs.String("benchmarks", "", "comma-separated subset (default: all six)")
		quiet      = fs.Bool("q", false, "suppress operational log lines")
		simFaults  = fs.Int("sim-fault-limit", 0, "contained simulator panics tolerated per cell (0 = fail fast, -1 = unlimited)")
		deadline   = fs.Duration("cell-deadline", 0, "per-cell wall-clock watchdog on the workers (0 = off)")
		leaseTTL   = fs.Duration("lease-ttl", 30*time.Second, "heartbeat deadline: a lease not extended within this long is expired and its cell requeued")
		maxRetries = fs.Int("max-retries", 3, "re-grants per cell before it degrades to a typed fleet-failed skip")
		backoff    = fs.Duration("backoff", 250*time.Millisecond, "base requeue delay, doubled per retry up to -backoff-cap (with jitter)")
		backoffCap = fs.Duration("backoff-cap", 5*time.Second, "requeue delay ceiling")
		retryAfter = fs.Duration("retry-after", 200*time.Millisecond, "poll delay handed to workers when no cell is grantable")
		jitterSeed = fs.Int64("jitter-seed", 1, "requeue jitter seed (shapes scheduling only; results never depend on it)")
		checkpoint = fs.String("checkpoint", "", "durable cell checkpoint (JSONL); an existing non-empty file resumes the study (default: a temp file, removed after a rendered run)")
		events     = fs.String("events", "", "write the coordinator's fleet telemetry event stream (JSONL) to this file")
		once       = fs.Bool("once", false, "exit once the study converges, rendering the report to stdout (default: keep serving dashboards until interrupted)")
		spawn      = fs.Int("spawn-workers", 0, "spawn this many local worker subprocesses joined to this coordinator")
		drainGrace = fs.Duration("drain-grace", 30*time.Second, "on SIGTERM, wait this long for in-flight leases to complete before exiting")
		adaptFlag  = fs.String("adaptive", "off", "adaptive sampling: off|on|eps=E,min=M,check=C — workers stop cells once every outcome-rate Wilson 95% CI is narrower than eps; the coordinator reallocates the saved budget as extension leases")
		traceOn    = fs.Bool("trace", false, "arm fleet-wide distributed tracing: lease grants propagate trace context to workers, worker spans merge back over heartbeats and completions, and /tracez serves the live timeline (results are byte-identical with or without it)")
		flightRec  = fs.String("flight-recorder", "", "also append every finished span to this durable JSONL flight-recorder file (implies -trace; fail-stop: a write failure detaches the file and the in-memory timeline continues)")
		warehouseD = fs.String("warehouse", "", "content-addressed result warehouse directory: warehoused cells resolve at submission without ever granting a lease, every leased resolution is stored back, and GET /warehouse reports per-cell hit/miss status")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	adaptCfg, err := adaptive.Parse(*adaptFlag)
	if err != nil {
		return fmt.Errorf("-adaptive %q: %w", *adaptFlag, err)
	}
	if *worker {
		return runWorker(ctx, *join, *name, *quiet)
	}
	cellsOf, err := cli.ExperimentCells(*experiment)
	if err != nil {
		return err
	}
	if cellsOf == nil {
		return fmt.Errorf("-experiment %s runs no campaign (the fleet runs fig3|fig4|table5|calibration|all)", *experiment)
	}
	if *spawn < 0 {
		return fmt.Errorf("-spawn-workers %d: want zero or more", *spawn)
	}
	if *join != "" || *name != "" {
		return fmt.Errorf("-join and -name are worker flags; add -worker")
	}

	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	if *quiet {
		logf = func(string, ...any) {}
	}

	progs, err := cli.BuildPrograms(*benches)
	if err != nil {
		return err
	}
	cells := cellsOf(progs)

	// Durability: the coordinator always checkpoints. A named -checkpoint
	// survives restarts (and resumes when the file already has records);
	// the default is a temp file removed only after a fully rendered run,
	// so an interrupted study is never left without its state. Workers
	// run every cell on the sequential stream, so the identity is n,
	// seed and the adaptive signature; the header records the policy
	// workers run, snapshot replay under the worker budget plus the
	// compiled engines, as provenance.
	shape := core.CheckpointShape{N: *n, Seed: *seed, Replay: fleet.ReplaySignature(), Compiled: "on",
		Adaptive: adaptCfg.Signature()}
	ckptPath := *checkpoint
	var tmpCkptDir string
	if ckptPath == "" {
		dir, err := os.MkdirTemp("", "fiserve-")
		if err != nil {
			return err
		}
		tmpCkptDir = dir
		ckptPath = filepath.Join(dir, "fleet-checkpoint.jsonl")
	}
	var resumeState *core.CheckpointState
	var writer *core.CheckpointWriter
	if st, statErr := os.Stat(ckptPath); statErr == nil && st.Size() > 0 {
		resumeState, err = core.LoadCheckpointShape(ckptPath, shape)
		if err != nil {
			return err
		}
		logf("fiserve: resuming: %d completed and %d skipped cells restored from %s",
			len(resumeState.Cells), len(resumeState.Skips), ckptPath)
		writer, err = core.OpenCheckpointAppend(ckptPath)
	} else {
		writer, err = core.NewCheckpointWriterShape(ckptPath, shape)
	}
	if err != nil {
		return err
	}
	defer writer.Close()

	var rec telemetry.Recorder
	if *events != "" {
		f, err := os.Create(*events)
		if err != nil {
			return err
		}
		defer f.Close()
		rec = telemetry.NewJSONLSink(f)
	}

	// Fleet tracing: one recorder on the coordinator owns the merged
	// timeline (its trace ID rides every lease grant; worker span batches
	// merge back through /heartbeat and /complete). -flight-recorder adds
	// the durable JSONL file under fail-stop discipline. Scheduling-only:
	// the report and checkpoint are byte-identical with or without it.
	var tracer *trace.Recorder
	if *traceOn || *flightRec != "" {
		tracer, err = trace.New(trace.Options{
			Capacity: 1 << 16,
			File:     *flightRec,
			Head: trace.Header{
				Go:       runtime.Version(),
				Engine:   "on",
				Adaptive: adaptCfg.Signature(),
				N:        *n,
				Seed:     *seed,
			},
		})
		if err != nil {
			return err
		}
		defer func() {
			if cerr := tracer.Close(); cerr != nil {
				logf("fiserve: flight recorder: %v", cerr)
			}
		}()
		if *flightRec != "" {
			logf("fiserve: flight recorder appending to %s", *flightRec)
		}
	}

	metrics := fleet.NewMetrics()
	obs.RegisterBuildInfo(metrics.Registry(), "on", adaptCfg.Signature())

	// Result warehouse: warehoused cells resolve at submission without a
	// lease, leased resolutions are stored back, and GET /warehouse
	// reports per-cell status. The cache key covers the same identity the
	// checkpoint header pins, so fleet and local ficompare runs share one
	// store.
	var wcache *warehouse.StudyCache
	if *warehouseD != "" {
		wstore, werr := warehouse.Open(*warehouseD)
		if werr != nil {
			return werr
		}
		wstore.Hits, wstore.Misses, wstore.Stores =
			metrics.WarehouseHits, metrics.WarehouseMisses, metrics.WarehouseStores
		wcache = wstore.ForStudy(shape, progs)
		logf("fiserve: result warehouse at %s", wstore.Dir())
	}

	c, err := fleet.New(fleet.Config{
		Programs:      progs,
		N:             *n,
		Seed:          *seed,
		Cells:         cells,
		SimFaultLimit: *simFaults,
		CellDeadline:  *deadline,
		LeaseTTL:      *leaseTTL,
		MaxRetries:    *maxRetries,
		Backoff:       *backoff,
		BackoffCap:    *backoffCap,
		RetryAfter:    *retryAfter,
		JitterSeed:    *jitterSeed,
		Adaptive:      adaptCfg,
		Checkpoint:    writer,
		Resume:        resumeState,
		Warehouse:     wcache,
		Events:        rec,
		Metrics:       metrics,
		Trace:         tracer,
		Logf:          logf,
	})
	if err != nil {
		return err
	}
	c.Start()
	defer c.Stop()

	// One listener serves the fleet protocol and the obs dashboard: the
	// protocol endpoints take their paths, everything else (/metrics,
	// /statusz, /debug/pprof/) falls through to the obs mux with the
	// coordinator's Status as the /statusz payload.
	mux := c.Handler()
	mux.Handle("/", obs.MuxTrace(metrics.Registry(), c.Status, tracer))
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	addr := ln.Addr().String()
	logf("fiserve: coordinating on http://%s (POST /lease /heartbeat /complete /drain; GET /metrics /statusz /tracez)", addr)
	if onReady != nil {
		onReady(addr)
	}

	// Optional single-machine fleet: local worker subprocesses joined to
	// this coordinator. They exit on their own once the study converges
	// (or drains); a SIGTERM-ed coordinator forwards the signal so they
	// drain too.
	var poolDone chan []string
	if *spawn > 0 {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("cannot locate own binary to spawn workers: %w", err)
		}
		cmds := make([]*exec.Cmd, *spawn)
		for i := range cmds {
			wargs := []string{"-worker", "-join", "http://" + addr, "-name", fmt.Sprintf("w%d", i+1)}
			if *quiet {
				wargs = append(wargs, "-q")
			}
			cmds[i] = cli.WorkerCommand(ctx, exe, wargs...)
		}
		poolDone = make(chan []string, 1)
		go func() {
			poolDone <- cli.RunWorkerPool(cmds, func(i int) string { return fmt.Sprintf("worker w%d", i+1) })
		}()
	}

	// Wait for convergence or a shutdown signal. Without -once a
	// converged coordinator keeps the dashboards up until interrupted.
	select {
	case <-c.Done():
		if !*once {
			logf("fiserve: study converged; dashboards stay up until interrupted (use -once to exit on convergence)")
			<-ctx.Done()
		}
	case <-ctx.Done():
		logf("fiserve: interrupted; draining (%d cells unresolved, waiting up to %v for in-flight leases)", c.Drain(), *drainGrace)
		select {
		case <-c.Done():
		case <-time.After(*drainGrace):
		}
	}
	// Let waiting workers observe the done status before the listener
	// goes away: a poller re-polls within -retry-after, so two periods of
	// linger turn a would-be "connection refused" into the clean worker
	// exit the protocol promises.
	time.Sleep(2 * *retryAfter)
	c.Stop()
	if poolDone != nil {
		for _, f := range <-poolDone {
			fmt.Fprintf(os.Stderr, "fiserve: %s\n", f)
		}
	}

	// The study driver returns the rendered study itself: every cell was
	// looked up, leased or resumed once, through the same resolution rule
	// a local study uses.
	st, err := c.Wait()
	if errors.Is(err, core.ErrAborted) {
		logf("fiserve: study incomplete; checkpoint kept at %s — restart with -checkpoint %s to resume", ckptPath, ckptPath)
		return nil
	}
	if err != nil {
		return err
	}
	cli.RenderExperiment(os.Stdout, st, *experiment)
	if tmpCkptDir != "" {
		os.RemoveAll(tmpCkptDir)
	}
	return nil
}

// runWorker is worker mode: join a coordinator and execute leases until
// it reports the study done (or we are SIGTERM-ed, which drains: the
// cell in flight finishes and its completion is delivered first).
func runWorker(ctx context.Context, join, name string, quiet bool) error {
	if join == "" {
		return fmt.Errorf("-worker requires -join http://host:port")
	}
	if name == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	logf := func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }
	if quiet {
		logf = func(string, ...any) {}
	}
	client := &fleet.Client{
		Base: strings.TrimRight(join, "/"),
		// Per-worker jitter streams: derived from the name so a fleet
		// reconnecting after a coordinator restart spreads out, yet every
		// run of the same fleet is reproducible.
		JitterSeed: jitterSeedFor(name),
		Logf:       logf,
	}
	return fleet.RunWorker(ctx, fleet.WorkerConfig{Name: name, Client: client, Logf: logf})
}

// jitterSeedFor hashes a worker name into a non-zero jitter seed.
func jitterSeedFor(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	seed := int64(h.Sum64())
	if seed == 0 {
		return 1
	}
	return seed
}
