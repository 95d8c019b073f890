// Command ficompare reproduces the paper's full LLFI-vs-PINFI study: it
// compiles the six benchmark workloads for both execution levels, runs
// seeded fault-injection campaigns for every (benchmark, level, category)
// cell, and regenerates the evaluation artifacts:
//
//	-experiment fig3    aggregate crash/SDC/benign breakdown (Figure 3)
//	-experiment table4  dynamic candidate-instruction counts (Table IV)
//	-experiment fig4    SDC rates with 95% CIs per category (Figure 4)
//	-experiment table5  crash rates per category (Table V)
//	-experiment table2  benchmark characteristics (Table II)
//	-experiment calibration  the §VII future-work heuristics, three-way
//	-experiment all     everything plus the headline summary
//
// Every experiment except table2 and table4 runs its campaign cells
// through the one study scheduler, so -parallel, -checkpoint/-resume,
// -warehouse, -events, -shard/-merge and the rest apply to calibration
// exactly as to the paper experiments.
//
// The paper uses N=1000 injections per cell; that is the default here and
// takes a few minutes. Use -n to trade precision for speed, -parallel to
// run campaign cells concurrently (output stays byte-identical), and
// -events to capture the campaign telemetry stream as JSONL.
//
// For scale-out beyond one process, -shard i/N runs the deterministic
// subset of cells one worker owns (checkpointing them with a
// shard-tagged header) and -merge reassembles a complete shard set into
// the byte-identical single-process report. To run local worker
// processes under supervision, use fiserve -once -spawn-workers N. See
// docs/distributed.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hlfi/internal/adaptive"
	"hlfi/internal/bench"
	"hlfi/internal/cli"
	"hlfi/internal/core"
	"hlfi/internal/obs/trace"
	"hlfi/internal/warehouse"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ficompare:", err)
		os.Exit(1)
	}
}

// run keeps the uncancellable entry point used by the in-process tests.
func run(args []string) error {
	return runCtx(context.Background(), args)
}

func runCtx(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ficompare", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "fig3|table4|fig4|table5|table2|calibration|all")
		n          = fs.Int("n", 1000, "activated injections per cell")
		seed       = fs.Int64("seed", 1, "study seed")
		benches    = fs.String("benchmarks", "", "comma-separated subset (default: all six)")
		quiet      = fs.Bool("q", false, "suppress per-cell progress and the telemetry summary")
		parallel   = fs.Int("parallel", 1, "campaign cells in flight (study-level scheduler; output is identical for any value)")
		events     = fs.String("events", "", "write the campaign telemetry event stream (JSONL) to this file")
		jsonOut    = fs.Bool("json", false, "emit machine-readable JSON scoped to the experiment (fig3/fig4/table5/all)")
		checkpoint = fs.String("checkpoint", "", "append completed cells to this JSONL checkpoint as they finish")
		resume     = fs.String("resume", "", "resume from this checkpoint: recorded cells are not re-run and keep checkpointing into the same file (output is byte-identical to an uninterrupted run)")
		simFaults  = fs.Int("sim-fault-limit", 0, "contained simulator panics tolerated per cell (0 = fail fast, -1 = unlimited)")
		deadline   = fs.Duration("cell-deadline", 0, "per-cell wall-clock watchdog; an over-deadline cell is skipped as degraded (0 = off)")
		reference  = fs.Bool("reference", false, cli.ReferenceUsage)
		status     = fs.String("status", "", "serve live observability on this address (/metrics, /statusz, /tracez, /debug/pprof/); results are byte-identical with or without it")
		linger     = fs.Duration("status-linger", 0, "keep the status endpoint serving this long after the study finishes (useful for scraping short runs)")
		traceAtt   = fs.Int("trace-attempts", 0, "record fault-propagation traces for the first N attempts of every cell as attempt_trace events (results stay byte-identical)")
		shard      = fs.String("shard", "", "run one shard of the study: \"i/N\" owns the canonical cells with index%N == i; pair with -checkpoint (fresh) or -resume (restart), then reassemble with -merge")
		mergeGlob  = fs.String("merge", "", "merge mode: glob of shard checkpoints to validate and reassemble into the byte-identical single-process report (study shape comes from the headers; no campaigns run)")
		adaptFlag  = fs.String("adaptive", "off", "adaptive sampling: off|on|eps=E,min=M,check=C — stop each cell once every outcome-rate Wilson 95% CI is narrower than eps, then reallocate the saved budget to the widest cells (off = the paper's fixed-n design)")
		traceOut   = fs.String("trace-out", "", "record the study timeline and write it to this file as a Chrome trace-event export (open in Perfetto); results are byte-identical with or without it")
		warehouseD = fs.String("warehouse", "", "content-addressed result warehouse directory: completed cells are stored under the hash of everything that determines their outcome (program bytes, fault model, n, seed, adaptive signature; the engine policy is provenance and never hashed) and later runs resolve matching cells from the store without executing a single injection; output stays byte-identical to a cold run")
		warehouseQ = fs.Bool("warehouse-query", false, "query mode: print the warehouse hit/skip/miss status of every study cell under the current flags and exit without running campaigns (answers \"which cells changed since this store was populated\")")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cellsOf, err := cli.ExperimentCells(*experiment)
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := core.CheckExperimentJSON(*experiment); err != nil {
			return err
		}
	}
	adaptCfg, err := adaptive.Parse(*adaptFlag)
	if err != nil {
		return fmt.Errorf("-adaptive %q: %w", *adaptFlag, err)
	}

	// Scale-out and query modes are mutually exclusive and only make
	// sense for the campaign experiments (profiling-only and table2 runs
	// have no cells to shard or look up).
	sharded := *shard != "" || *mergeGlob != ""
	if *shard != "" && *mergeGlob != "" {
		return fmt.Errorf("-shard and -merge are mutually exclusive")
	}
	if (sharded || *warehouseQ) && cellsOf == nil {
		return fmt.Errorf("-shard, -merge and -warehouse-query require a campaign experiment (fig3|fig4|table5|calibration|all), not %q", *experiment)
	}
	if *mergeGlob != "" && (*checkpoint != "" || *resume != "") {
		return fmt.Errorf("-merge reassembles existing shard checkpoints; it cannot be combined with -checkpoint or -resume")
	}
	if *warehouseQ {
		if *warehouseD == "" {
			return fmt.Errorf("-warehouse-query needs -warehouse to name the store")
		}
		if sharded {
			return fmt.Errorf("-warehouse-query inspects the store for this process's study shape; it cannot be combined with -shard or -merge")
		}
	}

	if *experiment == "table2" {
		printTable2()
		return nil
	}

	progs, err := cli.BuildPrograms(*benches)
	if err != nil {
		return err
	}

	// Table IV needs only the build-time golden profiles; skip the
	// campaigns.
	if *experiment == "table4" {
		cli.RenderExperiment(os.Stdout, core.ProfileStudy(progs, *n, *seed), "table4")
		return nil
	}
	cells := cellsOf(progs)

	// Shard mode: this process owns the canonical cells with
	// index%Count == Index. Everything downstream is the ordinary study
	// path — cellSeed makes each cell self-contained, so the shard's
	// checkpoint is merge-ready without coordination.
	var shardSpec *core.ShardSpec
	if *shard != "" {
		spec, err := core.ParseShardSpec(*shard)
		if err != nil {
			return err
		}
		shardSpec = &spec
	}

	// Merge mode: validate the shard checkpoints for mutual consistency
	// and completeness, adopt the study shape their headers pin, and
	// resume the study from the combined state — every cell restores, no
	// campaign re-runs, and the report is byte-identical to the
	// single-process run.
	var mergedState *core.CheckpointState
	if *mergeGlob != "" {
		// Comma-separated patterns concatenate; overlapping patterns (or
		// symlinked paths) that name the same shard file twice are caught
		// by the merge's same-file duplicate check and reported, never
		// silently deduplicated.
		var paths []string
		for _, pat := range strings.Split(*mergeGlob, ",") {
			pat = strings.TrimSpace(pat)
			if pat == "" {
				continue
			}
			matched, err := filepath.Glob(pat)
			if err != nil {
				return fmt.Errorf("-merge %q: %w", pat, err)
			}
			paths = append(paths, matched...)
		}
		if len(paths) == 0 {
			return fmt.Errorf("-merge %q matched no shard checkpoints", *mergeGlob)
		}
		merged, err := core.MergeShardCheckpoints(paths)
		if err != nil {
			return err
		}
		if err := merged.VerifyComplete(cells); err != nil {
			return err
		}
		*n, *seed = merged.Shape.N, merged.Shape.Seed
		// The merged headers also pin the adaptive signature; adopt it so
		// the reallocation round replans from the shard round-1 records
		// exactly as the single-process run would.
		adaptCfg, err = adaptive.ParseSignature(merged.Shape.Adaptive)
		if err != nil {
			return fmt.Errorf("merged checkpoint adaptive signature %q: %w", merged.Shape.Adaptive, err)
		}
		mergedState = merged.State
		fmt.Fprintf(os.Stderr, "merged %d shard checkpoints: %d cells, %d skips (n=%d seed=%d)\n",
			merged.Count, len(merged.State.Cells), len(merged.State.Skips), *n, *seed)
	}

	// Execution policy: snapshot replay plus the compiled engines, or
	// the reference interpreters with -reference. Byte-identical either
	// way; only speed and the replay telemetry differ.
	replay, compiledCfg := cli.Policy(*reference)

	// Campaign flight recorder: -trace-out arms an in-memory span
	// recorder over the study (campaign, cell, scan/run phases, adaptive
	// extensions) and writes the timeline as a Chrome trace-event file
	// when the run ends. Entirely off the stdout path: reports and
	// checkpoints are byte-identical with or without it.
	var tracer *trace.Recorder
	if *traceOut != "" {
		tracer, err = trace.New(trace.Options{
			Capacity: 1 << 16,
			Head: trace.Header{
				Go:       runtime.Version(),
				Engine:   compiledCfg.Signature(),
				Adaptive: adaptCfg.Signature(),
				N:        *n,
				Seed:     *seed,
			},
		})
		if err != nil {
			return err
		}
	}

	// Fault tolerance: an optional resume state (cells already completed
	// by an interrupted run) and an optional checkpoint writer for this
	// run's cells. -resume alone keeps appending to the same file. The
	// header pins the study identity (n, seed, adaptive signature) and
	// the shard spec, so a resumed run cannot silently mix samples or
	// shards; the replay
	// and compiled signatures are recorded as provenance and may differ
	// on resume. A -merge run resumes from the reassembled shard state
	// instead.
	shape := core.CheckpointShape{N: *n, Seed: *seed,
		Replay: replay.Signature(), Compiled: compiledCfg.Signature(),
		Adaptive: adaptCfg.Signature()}
	if shardSpec != nil {
		shape.Shard = shardSpec.String()
	}

	// Telemetry (an in-memory aggregator always, a JSONL sink under
	// -events), live observability under -status and the result
	// warehouse under -warehouse: all off the stdout path, so the
	// rendered tables stay byte-identical whatever these flags. A
	// warehouse hit resolves a cell without executing an injection; the
	// key covers the program bytes and the study identity, so a hit can
	// only replay the byte-identical outcome; shard workers share one
	// store safely (atomic per-record files, idempotent writes).
	wr, err := cli.Wire(shape, progs, *events, *status, *warehouseD, tracer)
	if err != nil {
		return err
	}
	// LIFO defers: the linger sleep runs before the server closes, so a
	// short study remains scrapeable for a moment after finishing.
	defer wr.Close()
	if *linger > 0 {
		defer time.Sleep(*linger)
	}
	if *warehouseQ {
		return queryWarehouse(os.Stdout, wr.Warehouse, cells, *n)
	}
	resumeState := mergedState
	if *resume != "" {
		resumeState, err = core.LoadCheckpointShape(*resume, shape)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "resuming: %d completed and %d skipped cells restored from %s\n",
			len(resumeState.Cells), len(resumeState.Skips), *resume)
	}
	var ckpt *core.CheckpointWriter
	switch {
	case *checkpoint != "" && *checkpoint == *resume:
		ckpt, err = core.OpenCheckpointAppend(*checkpoint)
	case *checkpoint != "":
		ckpt, err = core.NewCheckpointWriterShape(*checkpoint, shape)
	case *resume != "":
		ckpt, err = core.OpenCheckpointAppend(*resume)
	}
	if err != nil {
		return err
	}
	defer ckpt.Close()

	start := time.Now()
	cfg := core.StudyConfig{Programs: progs, Cells: cells, N: *n, Seed: *seed,
		Parallel: *parallel, SimFaultLimit: *simFaults, CellDeadline: *deadline,
		Checkpoint: ckpt, Resume: resumeState, Replay: replay,
		Compiled: compiledCfg, TraceAttempts: *traceAtt,
		Adaptive: adaptCfg, Shard: shardSpec, Trace: tracer}
	wr.Arm(&cfg)
	if !*quiet {
		cfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	st, err := core.RunStudyContext(ctx, cfg)
	aborted := errors.Is(err, core.ErrAborted)
	if err != nil && !aborted {
		return err
	}
	if aborted {
		fmt.Fprintf(os.Stderr, "study aborted after %v with %d cells completed; rendering partial results\n",
			time.Since(start).Round(time.Second), len(st.Cells))
		if ckpt != nil {
			fmt.Fprintf(os.Stderr, "checkpoint flushed; resume with -resume to finish the study\n")
		}
	} else {
		fmt.Fprintf(os.Stderr, "study completed in %v\n\n", time.Since(start).Round(time.Second))
	}
	if !*quiet {
		fmt.Fprintln(os.Stderr, wr.Agg.RenderTelemetry())
	}

	// Write the flight-recorder export once the study (and all its spans)
	// has settled. A partial (aborted) timeline is still worth keeping.
	if *traceOut != "" {
		f, werr := os.Create(*traceOut)
		if werr != nil {
			return werr
		}
		werr = tracer.WriteChrome(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("-trace-out %s: %w", *traceOut, werr)
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (open in Perfetto or chrome://tracing)\n", *traceOut)
	}

	if *jsonOut {
		if jerr := st.WriteExperimentJSON(os.Stdout, *experiment); jerr != nil {
			return jerr
		}
		return err
	}

	cli.RenderExperiment(os.Stdout, st, *experiment)
	return err
}

// queryWarehouse prints the warehouse status of every study cell at its
// base identity — hit (a completed record), skip (a cached deterministic
// skip), or miss (the cell would execute). Adaptive extension records
// live under raised targets the reallocation plan derives at run time,
// so the base-identity answer is the conservative one: a listed hit is
// guaranteed to resolve without execution.
func queryWarehouse(w io.Writer, cache *warehouse.StudyCache, keys []core.CellKey, n int) error {
	counts := map[string]int{}
	fmt.Fprintf(w, "%-10s %-5s %-10s %-6s %s\n", "BENCHMARK", "LEVEL", "CATEGORY", "STATUS", "KEY")
	for _, key := range keys {
		status := cache.Probe(key, n, n)
		kh, ok := cache.KeyHex(key, n, n)
		if !ok {
			kh = "-"
		}
		cat := key.Category.String()
		if key.Variant != core.VariantPaper {
			cat += "/" + key.Variant.String()
		}
		fmt.Fprintf(w, "%-10s %-5s %-10s %-6s %s\n",
			key.Prog, key.Level, cat, status, kh)
		counts[status]++
	}
	fmt.Fprintf(w, "\n%d hit, %d skip, %d miss of %d cells in %s\n",
		counts[warehouse.StatusHit], counts[warehouse.StatusSkip], counts[warehouse.StatusMiss],
		len(keys), cache.Store().Dir())
	return nil
}

func printTable2() {
	fmt.Println("Table II: characteristics of benchmark programs")
	fmt.Printf("%-12s %-22s %6s  %s\n", "benchmark", "stands in for", "LoC", "description")
	for _, b := range bench.All() {
		fmt.Printf("%-12s %-22s %6d  %s\n", b.Name, b.Suite, b.LoC(), b.Description)
	}
}
