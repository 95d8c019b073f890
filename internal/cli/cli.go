// Package cli holds the shared plumbing of the command-line tools:
// program loading, study wiring and campaign reporting.
package cli

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"hlfi/internal/adaptive"
	"hlfi/internal/bench"
	"hlfi/internal/core"
	"hlfi/internal/fault"
	"hlfi/internal/obs"
	"hlfi/internal/obs/trace"
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

// Wiring is what every study-running CLI attaches around
// core.RunStudyContext: an in-memory telemetry aggregator (plus a JSONL
// sink under -events), live metrics with their status endpoint under
// -status, and the result warehouse under -warehouse with its hit, miss
// and store counters. All of it is off the stdout path: rendered output
// is byte-identical with or without any of it.
type Wiring struct {
	Agg       *telemetry.Aggregator
	Warehouse *warehouse.StudyCache
	rec       telemetry.Recorder
	metrics   *obs.Metrics
	events    *os.File
	srv       *obs.Server
}

// Wire opens the wiring of one study of progs under shape. An empty
// eventsPath, statusAddr or warehouseDir leaves that part off; tracer,
// when non-nil, is served at /tracez. Close releases what Wire opened.
func Wire(shape core.CheckpointShape, progs []*core.Program, eventsPath, statusAddr, warehouseDir string, tracer *trace.Recorder) (_ *Wiring, err error) {
	wr := &Wiring{Agg: telemetry.NewAggregator()}
	defer func() {
		if err != nil {
			wr.Close()
		}
	}()
	wr.rec = wr.Agg
	if eventsPath != "" {
		if wr.events, err = os.Create(eventsPath); err != nil {
			return nil, err
		}
		wr.rec = telemetry.Multi(wr.Agg, telemetry.NewJSONLSink(wr.events))
	}
	if statusAddr != "" {
		wr.metrics = obs.New()
		obs.RegisterBuildInfo(wr.metrics.Registry(), shape.Compiled, shape.Adaptive)
		wr.srv, err = obs.StartServerTrace(statusAddr, wr.metrics.Registry(), func() any { return wr.Agg.Status() }, tracer)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "status endpoint listening on %s (/metrics /statusz /tracez /debug/pprof/)\n", wr.srv.Addr())
	}
	if warehouseDir != "" {
		store, err := warehouse.Open(warehouseDir)
		if err != nil {
			return nil, err
		}
		if wr.metrics != nil {
			store.Hits, store.Misses, store.Stores = wr.metrics.WarehouseHits, wr.metrics.WarehouseMisses, wr.metrics.WarehouseStores
		}
		wr.Warehouse = store.ForStudy(shape, progs)
	}
	return wr, nil
}

// Arm attaches the wiring's event recorder, metrics and warehouse to a
// study configuration, and binds the metrics' read-at-scrape series to
// the aggregator and the configuration's replay and compiled policy.
func (wr *Wiring) Arm(cfg *core.StudyConfig) {
	cfg.Events, cfg.Obs = wr.rec, wr.metrics
	core.BindMetrics(wr.metrics, wr.Agg, cfg.Replay, cfg.Compiled)
	if wr.Warehouse != nil {
		// StudyConfig.Warehouse is an interface: a typed-nil *StudyCache
		// would defeat its nil check.
		cfg.Warehouse = wr.Warehouse
	}
}

// Close stops the status endpoint, then closes the event file.
func (wr *Wiring) Close() {
	_ = wr.srv.Close()
	if wr.events != nil {
		_ = wr.events.Close()
	}
}

// CampaignOptions configures RunCampaign beyond the cell identity.
type CampaignOptions struct {
	// N activated injections to collect; Seed the study seed, from which
	// the cell's campaign seed derives exactly as in ficompare.
	N    int
	Seed int64
	// Verbose prints activation accounting.
	Verbose bool
	// EventsPath, when non-empty, captures the telemetry event stream of
	// the one-cell study as JSONL.
	EventsPath string
	// StatusAddr, when non-empty, serves live observability (/metrics,
	// /statusz, /debug/pprof/) on this address for the duration of the
	// campaign.
	StatusAddr string
	// TraceAttempts arms fault-propagation tracing for the first
	// TraceAttempts attempts; traces are released as attempt_trace
	// telemetry events.
	TraceAttempts int
	// Reference runs every attempt on the reference interpreter from
	// instruction zero (the -reference flag of every CLI; results are
	// byte-identical either way).
	Reference bool
	// Adaptive, when non-nil, arms the early-stopping rule for the
	// single cell (a lone cell has no budget to reallocate, so it simply
	// stops once converged).
	Adaptive *adaptive.Config
	// Warehouse, when non-empty, is the content-addressed result store
	// directory, shared with ficompare and the fleet: a cached record for
	// this cell replays its summary without executing an injection, and
	// a fresh result is stored back.
	Warehouse string
}

// RunCampaign runs one campaign cell as a one-cell study and prints the
// paper-style summary to w. The cell is the study cell ficompare runs
// under the same n and seed, so the two print the same counts and share
// warehouse records.
func RunCampaign(w io.Writer, prog *core.Program, level fault.Level, cat fault.Category, opts CampaignOptions) error {
	key := core.CellKey{Prog: prog.Name, Level: level, Category: cat}
	progs := []*core.Program{prog}
	replay, compiled := Policy(opts.Reference)
	shape := core.CheckpointShape{N: opts.N, Seed: opts.Seed,
		Replay: replay.Signature(), Compiled: compiled.Signature(),
		Adaptive: opts.Adaptive.Signature()}
	wr, err := Wire(shape, progs, opts.EventsPath, opts.StatusAddr, opts.Warehouse, nil)
	if err != nil {
		return err
	}
	defer wr.Close()
	cfg := core.StudyConfig{Programs: progs, Cells: []core.CellKey{key},
		N: opts.N, Seed: opts.Seed, Replay: replay, Compiled: compiled,
		TraceAttempts: opts.TraceAttempts, Adaptive: opts.Adaptive}
	wr.Arm(&cfg)
	st, err := core.RunStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %s, category %s: %d dynamic candidate instructions\n",
		level, prog.Name, cat, st.Dyn[key])
	res := st.Cells[key]
	if res == nil {
		// A soft skip (no candidates, no activated faults) leaves the
		// cell out of the study; its cell_skip event carries the reason.
		skips := wr.Agg.Status().Skips
		if len(skips) == 0 {
			return fmt.Errorf("cell %v: no result", key)
		}
		return errors.New(skips[0].Err)
	}
	if wr.Agg.Warehoused() > 0 {
		fmt.Fprintln(os.Stderr, "cell resolved from the result warehouse (no injections executed)")
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
