// Package cli holds the shared plumbing of the command-line tools:
// program loading and campaign reporting.
package cli

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hlfi/internal/adaptive"
	"hlfi/internal/bench"
	"hlfi/internal/core"
	"hlfi/internal/fault"
	"hlfi/internal/obs"
	"hlfi/internal/telemetry"
	"hlfi/internal/warehouse"
)

// LoadProgram builds a Program from a registered benchmark name or a
// minic source file (exactly one must be given).
func LoadProgram(benchName, srcPath string) (*core.Program, error) {
	switch {
	case benchName != "" && srcPath != "":
		return nil, fmt.Errorf("use -bench or -src, not both")
	case benchName != "":
		return bench.Build(benchName)
	case srcPath != "":
		src, err := os.ReadFile(srcPath)
		if err != nil {
			return nil, err
		}
		return core.BuildProgram(srcPath, string(src))
	default:
		return nil, fmt.Errorf("one of -bench or -src is required")
	}
}

// BuildPrograms compiles the named benchmarks (comma-separated; empty
// means all six), logging build progress to stderr the way the study
// tools always have.
func BuildPrograms(subset string) ([]*core.Program, error) {
	var names []string
	if subset == "" {
		for _, b := range bench.All() {
			names = append(names, b.Name)
		}
	} else {
		names = strings.Split(subset, ",")
	}
	var progs []*core.Program
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "building %s...\n", name)
		p, err := bench.Build(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	return progs, nil
}

// ReferenceUsage is the help text of the -reference flag every CLI
// shares.
const ReferenceUsage = "run every attempt on the reference interpreters from instruction zero: no snapshot replay, no compiled engines (results are byte-identical to the default)"

// Policy returns the attempt execution policy of a CLI run. The default
// arms snapshot fast-forward replay plus the compiled engines; reference
// selects the reference interpreters with no snapshots, which both nil
// configs mean.
func Policy(reference bool) (*core.ReplayConfig, *core.CompiledConfig) {
	if reference {
		return nil, nil
	}
	return &core.ReplayConfig{Stats: &telemetry.ReplayStats{}}, &core.CompiledConfig{}
}

// CampaignOptions configures RunCampaign beyond the cell identity.
type CampaignOptions struct {
	// N activated injections to collect; Seed the campaign seed.
	N    int
	Seed int64
	// Verbose prints activation accounting.
	Verbose bool
	// EventsPath, when non-empty, captures the telemetry event stream of
	// the single-cell campaign as JSONL (flag parity with ficompare).
	EventsPath string
	// SimFaultLimit and Deadline are the campaign fault-tolerance knobs
	// (see core.Campaign).
	SimFaultLimit int
	Deadline      time.Duration
	// StatusAddr, when non-empty, serves live observability (/metrics,
	// /statusz, /debug/pprof/) on this address for the duration of the
	// campaign.
	StatusAddr string
	// StatusLinger keeps the status endpoint serving this long after the
	// campaign finishes (so scrapers and smoke tests can read the final
	// state of a short run).
	StatusLinger time.Duration
	// TraceAttempts arms fault-propagation tracing for the first
	// TraceAttempts attempts; traces are released as attempt_trace
	// telemetry events.
	TraceAttempts int
	// Reference runs every attempt on the reference interpreter from
	// instruction zero (the -reference flag of every CLI; results are
	// byte-identical either way).
	Reference bool
	// Adaptive, when non-nil, arms the early-stopping rule for the
	// single cell (flag parity with ficompare's -adaptive; a lone cell
	// has no reallocation round, it simply stops once converged).
	Adaptive *adaptive.Config
	// Warehouse, when non-empty, is the content-addressed result store
	// directory: a cached record for this exact cell (program bytes,
	// fault model, n, seed, adaptive signature) replays its
	// summary without executing an injection, and a fresh result is
	// stored back. The key space is shared with ficompare and the fleet.
	Warehouse string
}

// RunCampaign executes one campaign cell and prints the paper-style
// summary to w.
func RunCampaign(w io.Writer, prog *core.Program, level fault.Level, cat fault.Category, opts CampaignOptions) error {
	dyn, err := core.DynCount(prog, level, cat)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %s, category %s: %d dynamic candidate instructions\n",
		level, prog.Name, cat, dyn)

	var rec telemetry.Recorder
	if opts.EventsPath != "" {
		f, err := os.Create(opts.EventsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		rec = telemetry.NewJSONLSink(f)
	}

	replay, compiled := Policy(opts.Reference)

	var om *obs.Metrics
	if opts.StatusAddr != "" {
		om = obs.New()
		om.CellsPlanned.Set(1)
		obs.RegisterBuildInfo(om.Registry(), compiled.Signature(), opts.Adaptive.Signature())
		srv, err := obs.StartServer(opts.StatusAddr, om.Registry(), nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "status endpoint listening on %s\n", srv.Addr())
		// LIFO defers: linger (if any) runs before the server closes, so
		// short campaigns stay scrapeable for a moment after finishing.
		defer srv.Close()
		if opts.StatusLinger > 0 {
			defer time.Sleep(opts.StatusLinger)
		}
	}

	// Result warehouse: a cached record for this exact cell replays the
	// summary without executing an injection; a fresh result (or a
	// deterministic skip) is stored back. The summary lines come from the
	// same renderer either way, so stdout is byte-identical to a cold run.
	var wcache *warehouse.StudyCache
	key := core.CellKey{Prog: prog.Name, Level: level, Category: cat}
	if opts.Warehouse != "" {
		wstore, werr := warehouse.Open(opts.Warehouse)
		if werr != nil {
			return werr
		}
		if om != nil {
			wstore.Hits, wstore.Misses, wstore.Stores = om.WarehouseHits, om.WarehouseMisses, om.WarehouseStores
		}
		wcache = wstore.ForStudy(core.CheckpointShape{N: opts.N, Seed: opts.Seed,
			Adaptive: opts.Adaptive.Signature()}, []*core.Program{prog})
		// The campaign below streams directly from opts.Seed, not from the
		// study scheduler's per-cell derivation — key on that.
		wcache.SetRawCampaignSeed()
		if res, skip, ok := wcache.Lookup(key, opts.N, opts.N); ok {
			switch {
			case res != nil:
				fmt.Fprintln(os.Stderr, "cell resolved from the result warehouse (no injections executed)")
				if rec != nil {
					rec.Record(telemetry.Event{Type: telemetry.EventStudyStart,
						N: opts.N, Seed: opts.Seed, Cells: 1, Parallel: 1})
					rec.Record(core.CellEvent(telemetry.EventWarehouseHit, key, res))
					rec.Record(telemetry.Event{Type: telemetry.EventStudyDone, Cells: 1})
				}
				printCampaignSummary(w, res, opts.Verbose)
				return nil
			case skip != nil:
				if rec != nil {
					rec.Record(telemetry.Event{Type: telemetry.EventCellSkip,
						Benchmark: prog.Name, Level: level.String(), Category: cat.String(),
						Err: skip.Err})
				}
				return fmt.Errorf("%s", skip.Err)
			}
		}
	}

	var metrics core.CellMetrics
	c := &core.Campaign{Prog: prog, Level: level, Category: cat,
		N: opts.N, Seed: opts.Seed, Metrics: &metrics,
		SimFaultLimit: opts.SimFaultLimit, Deadline: opts.Deadline,
		Replay: replay, Compiled: compiled, Obs: om, TraceAttempts: opts.TraceAttempts,
		Adaptive: opts.Adaptive}
	res, err := c.Run()
	emitCampaignEvents(rec, c, res, metrics, err)
	if wcache != nil {
		switch {
		case res != nil && err == nil:
			wcache.StoreCell(key, opts.N, opts.N, res)
		case err != nil:
			// StoreSkip keeps only deterministic kinds; deadline and other
			// execution accidents are dropped there.
			wcache.StoreSkip(key, opts.N, opts.N, core.SkipOf(err))
		}
	}
	if err != nil {
		return err
	}
	printCampaignSummary(w, res, opts.Verbose)
	return nil
}

// printCampaignSummary renders the paper-style cell summary — shared by
// the executed and warehouse-replayed paths so their stdout is
// byte-identical.
func printCampaignSummary(w io.Writer, res *core.CellResult, verbose bool) {
	if verbose {
		fmt.Fprintf(w, "attempts=%d (non-activated redrawn: %d)\n", res.Attempts, res.NotActivated)
		if res.Adaptive.Target > 0 && res.Adaptive.Converged {
			fmt.Fprintf(w, "adaptive: converged at %d activated (target %d)\n", res.Activated(), res.Adaptive.Target)
		}
		if res.SimFaults > 0 {
			fmt.Fprintf(w, "simulator panics contained: %d\n", res.SimFaults)
		}
	}
	fmt.Fprintf(w, "activated faults : %d\n", res.Activated())
	fmt.Fprintf(w, "  crash  : %4d  (%5.1f%% ±%.1f%%)\n", res.Crash, 100*res.CrashRate().Rate(), 100*res.CrashRate().WaldCI())
	fmt.Fprintf(w, "  sdc    : %4d  (%5.1f%% ±%.1f%%)\n", res.SDC, 100*res.SDCRate().Rate(), 100*res.SDCRate().WaldCI())
	fmt.Fprintf(w, "  hang   : %4d  (%5.1f%%)\n", res.Hang, 100*res.HangRate().Rate())
	fmt.Fprintf(w, "  benign : %4d  (%5.1f%%)\n", res.Benign, 100*res.BenignRate().Rate())
}

// emitCampaignEvents mirrors the study event stream for a single-cell
// campaign: study_start, any sim_fault records, cell_done (or cell_skip
// on a soft failure), study_done.
func emitCampaignEvents(rec telemetry.Recorder, c *core.Campaign, res *core.CellResult, m core.CellMetrics, runErr error) {
	if rec == nil {
		return
	}
	rec.Record(telemetry.Event{Type: telemetry.EventStudyStart,
		N: c.N, Seed: c.Seed, Cells: 1, Parallel: 1})
	for _, sf := range m.SimFaults {
		rec.Record(telemetry.Event{Type: telemetry.EventSimFault,
			Benchmark: sf.Prog, Level: sf.Level.String(), Category: sf.Category.String(),
			Attempt: sf.Attempt, AttemptSeed: sf.Seed, Panic: sf.Panic})
	}
	switch {
	case res != nil:
		for _, tr := range m.Traces {
			rec.Record(telemetry.Event{Type: telemetry.EventAttemptTrace,
				Benchmark: c.Prog.Name, Level: c.Level.String(), Category: c.Category.String(),
				Attempt: tr.Attempt, Trigger: tr.Trigger,
				Outcome: tr.Outcome.String(), Spans: tr.Spans})
		}
		rec.Record(core.CellDoneEvent(core.CellKey{Prog: c.Prog.Name, Level: c.Level, Category: c.Category}, res, m))
		rec.Record(telemetry.Event{Type: telemetry.EventStudyDone, Cells: 1,
			Attempts: res.Attempts, Activated: res.Activated(),
			DurationMS: telemetry.Ms(m.ScanTime + m.RunTime)})
	case runErr != nil:
		rec.Record(telemetry.Event{Type: telemetry.EventCellSkip,
			Benchmark: c.Prog.Name, Level: c.Level.String(), Category: c.Category.String(),
			Err: runErr.Error()})
	}
}
