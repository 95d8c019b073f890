package core_test

import (
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hlfi/internal/adaptive"
	"hlfi/internal/bench"
	"hlfi/internal/core"
	"hlfi/internal/fault"
	"hlfi/internal/fleet"
	"hlfi/internal/obs"
	"hlfi/internal/obs/trace"
	"hlfi/internal/telemetry"
	"hlfi/internal/warehouse"
)

// The differential matrix proves every speed and delivery mechanism
// invisible, alone and in combination: each row runs one study under a
// combination of axis values and must equal its class golden (reference
// policy, parallel 1, direct, no warehouse, no instrumentation) in
// rendered report bytes, Cells, Dyn and sorted checkpoint body.
var matrixAxes = []struct {
	name   string
	values []string
	// pinned counts the leading values the row set is built over first
	// (0: all of them). Those rows are kept as they are and extended to
	// the later values, so adding a value appends rows and every
	// existing row keeps its subtest name.
	pinned int
}{
	{"policy", []string{"reference", "fast", "fast-tight"}, 0},
	// parallel is the study's cell parallelism, or 2 and 3 fleet workers.
	{"parallel", []string{"1", "4"}, 0},
	// mergeK runs K shard workers and merges them; fleet runs an
	// in-process coordinator with workers and one abandoned lease. Fleet
	// workers always run the fleet's own policy, so the policy axis has
	// no effect on fleet rows.
	{"delivery", []string{"direct", "merge3", "resume", "merge2", "merge4", "fleet"}, 3},
	{"warehouse", []string{"off", "cold", "warm", "corrupt"}, 0},
	{"instr", []string{"off", "on"}, 0},
	{"adaptive", []string{"off", "on"}, 0},
	{"variant", []string{"paper", "calibration"}, 0},
}

// Axis positions in a matrixRow, and the value indexes the rows branch on.
const (
	axPolicy, axParallel, axDelivery, axWarehouse, axInstr, axAdaptive, axVariant = 0, 1, 2, 3, 4, 5, 6

	polReference, polFast, polTight  = 0, 1, 2
	delDirect, delFleet              = 0, 5
	whOff, whCold, whWarm, whCorrupt = 0, 1, 2, 3
)

// matrixRow holds one value index per axis.
type matrixRow [7]int

func (r matrixRow) String() string {
	var parts []string
	for i, v := range r {
		parts = append(parts, matrixAxes[i].name+"="+matrixAxes[i].values[v])
	}
	return strings.Join(parts, ",")
}

type axisPair struct{ a, va, b, vb int }

// width is the number of values of axis ax a row set covers: its pinned
// values, or all of them.
func width(ax int, pinned bool) int {
	if n := matrixAxes[ax].pinned; pinned && n > 0 {
		return n
	}
	return len(matrixAxes[ax].values)
}

// uncoveredPairs lists every pair of axis values no row holds, over the
// pinned values only or over all of them.
func uncoveredPairs(rows []matrixRow, pinned bool) []axisPair {
	var out []axisPair
	for a := range matrixAxes {
		for b := a + 1; b < len(matrixAxes); b++ {
			for va := 0; va < width(a, pinned); va++ {
				for vb := 0; vb < width(b, pinned); vb++ {
					covered := false
					for _, r := range rows {
						covered = covered || (r[a] == va && r[b] == vb)
					}
					if !covered {
						out = append(out, axisPair{a, va, b, vb})
					}
				}
			}
		}
	}
	return out
}

// matrixRows computes an all-pairs row set greedily, over the pinned
// values first and then over all of them.
func matrixRows() []matrixRow {
	return extendRows(extendRows(nil, true), false)
}

// extendRows adds rows until every pair is covered: each row starts
// from the first uncovered pair and fills every other axis with the
// value that covers the most still-uncovered pairs.
func extendRows(rows []matrixRow, pinned bool) []matrixRow {
	for todo := uncoveredPairs(rows, pinned); len(todo) > 0; todo = uncoveredPairs(rows, pinned) {
		var row matrixRow
		fixed := map[int]bool{todo[0].a: true, todo[0].b: true}
		row[todo[0].a], row[todo[0].b] = todo[0].va, todo[0].vb
		for ax := range matrixAxes {
			if fixed[ax] {
				continue
			}
			bestGain := -1
			for v := 0; v < width(ax, pinned); v++ {
				gain := 0
				for _, p := range todo {
					if (p.a == ax && p.va == v && fixed[p.b] && row[p.b] == p.vb) ||
						(p.b == ax && p.vb == v && fixed[p.a] && row[p.a] == p.va) {
						gain++
					}
				}
				if gain > bestGain {
					row[ax], bestGain = v, gain
				}
			}
			fixed[ax] = true
		}
		rows = append(rows, row)
	}
	return rows
}

// matrixSrc is an integer-only program long enough for the automatic
// and the 777-instruction snapshot strides to capture several
// snapshots. It has no cast candidates, so every study also carries
// soft-skip records.
const matrixSrc = `
int a[16];

int main() {
    int s = 0;
    for (int i = 0; i < 16; i++) a[i] = i * 7 + 3;
    for (int r = 0; r < 24; r++) {
        for (int i = 0; i < 16; i++) {
            if (a[i] > s) s = s + a[i] * r;
            else s = s - (a[i] >> 1);
        }
    }
    print_int(s);
    print_str("\n");
    return 0;
}
`

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// matrixClass is one (adaptive, variant) class: its study shape and its
// golden.
type matrixClass struct {
	progs []*core.Program
	cells []core.CellKey
	n     int
	seed  int64
	acfg  *adaptive.Config

	golden   *core.Study
	report   string
	body     []string
	extended int // golden cells that round 2 extended
}

func (c *matrixClass) shape(replay *core.ReplayConfig, compiled *core.CompiledConfig, shard string) core.CheckpointShape {
	return core.CheckpointShape{N: c.n, Seed: c.seed, Replay: replay.Signature(),
		Compiled: compiled.Signature(), Adaptive: c.acfg.Signature(), Shard: shard}
}

// matrixPolicy returns fresh configs for one policy axis value.
func matrixPolicy(p int) (*core.ReplayConfig, *core.CompiledConfig) {
	switch p {
	case polFast:
		return &core.ReplayConfig{Stats: &telemetry.ReplayStats{}}, &core.CompiledConfig{}
	case polTight:
		return &core.ReplayConfig{Stride: 777, MemBudget: 1, Stats: &telemetry.ReplayStats{}}, &core.CompiledConfig{}
	}
	return nil, nil
}

func otherPolicy(p int) int {
	if p == polReference {
		return polFast
	}
	return polReference
}

// matrixReport renders every report section a study can produce.
func matrixReport(st *core.Study) string {
	return st.RenderFigure3() + st.RenderTableIV() + st.RenderFigure4() + st.RenderTableV() +
		st.RenderSummary() + st.RenderCalibration() + st.RenderAdaptive()
}

// checkpointBody returns the record lines of checkpoint files without
// their headers, sorted: records are appended in completion order.
func checkpointBody(t *testing.T, paths ...string) []string {
	t.Helper()
	var body []string
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		must(t, err)
		for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
			if !strings.HasPrefix(line, `{"type":"study"`) {
				body = append(body, line)
			}
		}
	}
	sort.Strings(body)
	return body
}

// matchGolden compares one row's study and checkpoint body with the
// class golden.
func (c *matrixClass) matchGolden(t *testing.T, st *core.Study, body []string) {
	t.Helper()
	if len(st.Cells) != len(c.golden.Cells) {
		t.Errorf("%d cells, golden %d", len(st.Cells), len(c.golden.Cells))
	}
	for key, want := range c.golden.Cells {
		if got := st.Cells[key]; got == nil || *got != *want {
			t.Errorf("cell %v diverged:\n  want %+v\n  got  %+v", key, *want, got)
		}
	}
	for key, want := range c.golden.Dyn {
		if got := st.Dyn[key]; got != want {
			t.Errorf("dyn %v: %d != %d", key, got, want)
		}
	}
	if report := matrixReport(st); report != c.report {
		t.Errorf("report differs from the golden:\n--- golden ---\n%s\n--- row ---\n%s", c.report, report)
	}
	if fmt.Sprint(body) != fmt.Sprint(c.body) {
		t.Errorf("checkpoint body differs from the golden:\n  want %q\n  got  %q", c.body, body)
	}
}

// rowRun is one matrix row in flight. Its instrumentation, armed when
// the instr axis is on, rides along on every study of the row.
type rowRun struct {
	t     *testing.T
	class *matrixClass
	row   matrixRow
	dir   string

	replay   *core.ReplayConfig
	compiled *core.CompiledConfig
	wh       *warehouse.StudyCache

	om     *obs.Metrics
	tracer *trace.Recorder
	agg    *telemetry.Aggregator
	events *captureRecorder
	runs   int // instrumented studies

	fleetM    *fleet.Metrics // a fleet row's coordinator metrics
	abandoned bool           // the fleet row's bare client took a lease
}

// study runs one study of the row under policy (replay, compiled).
func (r *rowRun) study(replay *core.ReplayConfig, compiled *core.CompiledConfig, mutate func(*core.StudyConfig)) *core.Study {
	r.t.Helper()
	c := r.class
	cfg := core.StudyConfig{Programs: c.progs, Cells: c.cells, N: c.n, Seed: c.seed,
		Adaptive: c.acfg, Replay: replay, Compiled: compiled,
		Parallel: []int{1, 4}[r.row[axParallel]]}
	if r.wh != nil {
		cfg.Warehouse = r.wh
	}
	if r.om != nil {
		cfg.Obs, cfg.Trace, cfg.TraceAttempts = r.om, r.tracer, 2
		cfg.Events = telemetry.Multi(r.agg, r.events)
		r.runs++
	}
	if mutate != nil {
		mutate(&cfg)
	}
	st, err := core.RunStudy(cfg)
	must(r.t, err)
	return st
}

// checkpointed runs one study into a fresh checkpoint at name.
func (r *rowRun) checkpointed(name string, replay *core.ReplayConfig, compiled *core.CompiledConfig, shard *core.ShardSpec, mutate func(*core.StudyConfig)) (*core.Study, string) {
	r.t.Helper()
	path := filepath.Join(r.dir, name)
	spec := ""
	if shard != nil {
		spec = shard.String()
	}
	w, err := core.NewCheckpointWriterShape(path, r.class.shape(replay, compiled, spec))
	must(r.t, err)
	st := r.study(replay, compiled, func(cfg *core.StudyConfig) {
		cfg.Checkpoint, cfg.Shard = w, shard
		if mutate != nil {
			mutate(cfg)
		}
	})
	must(r.t, w.Close())
	return st, path
}

// merge runs k shard workers, the second one under the other policy,
// merges their checkpoints and renders from the merged state into one
// more checkpoint (which receives adaptive extensions). The render
// resolves every round-1 cell from the merged state, so it runs or
// looks up the extensions and nothing else.
func (r *rowRun) merge(k int) (*core.Study, []string) {
	t, c := r.t, r.class
	var paths []string
	for i := 0; i < k; i++ {
		replay, compiled := r.replay, r.compiled
		if i == 1 {
			replay, compiled = matrixPolicy(otherPolicy(r.row[axPolicy]))
		}
		_, path := r.checkpointed(fmt.Sprintf("shard-%d.jsonl", i), replay, compiled, &core.ShardSpec{Index: i, Count: k}, nil)
		paths = append(paths, path)
	}
	merged, err := core.MergeShardCheckpoints(paths)
	must(t, err)
	if merged.Count != k || merged.Shape.N != c.n || merged.Shape.Seed != c.seed || merged.Shape.Adaptive != c.acfg.Signature() {
		t.Fatalf("merged shape %+v from %d shards, want %d shards of n=%d seed=%d adaptive=%s",
			merged.Shape, merged.Count, k, c.n, c.seed, c.acfg.Signature())
	}
	must(t, merged.VerifyComplete(c.cells))
	for key, res := range merged.State.Cells {
		if res.Adaptive.Extended {
			t.Fatalf("shard worker extended cell %v; round 2 belongs to the merge", key)
		}
	}
	render := &captureRecorder{}
	st, path := r.checkpointed("render.jsonl", r.replay, r.compiled, nil, func(cfg *core.StudyConfig) {
		cfg.Resume, cfg.Events = merged.State, telemetry.Multi(cfg.Events, render)
	})
	if done, ext := render.count(telemetry.EventCellDone), render.count(telemetry.EventCellExtend)+render.count(telemetry.EventWarehouseHit); done != 0 || ext != c.extended {
		t.Errorf("merge render ran %d cells and resolved %d extensions, want 0 and %d", done, ext, c.extended)
	}
	return st, checkpointBody(t, append(paths, path)...)
}

// fleet runs the row's study as fiserve does: an in-process coordinator
// over the class cells with the class's adaptive config, the row's
// warehouse and a durable checkpoint, and 2 or 3 workers. Whenever a
// lease is grantable, a bare client takes one first and never
// completes it: the lease must expire and its cell be re-granted. The
// row's study is the one the coordinator's driver returns; the
// checkpoint must hold it, and a study resumed from the checkpoint must
// render it running no cell.
func (r *rowRun) fleet() (*core.Study, []string) {
	t, c := r.t, r.class
	shape := c.shape(nil, nil, "")
	shape.Replay, shape.Compiled = fleet.ReplaySignature(), "on"
	path := filepath.Join(r.dir, "fleet.jsonl")
	w, err := core.NewCheckpointWriterShape(path, shape)
	must(t, err)
	r.fleetM = fleet.NewMetrics()
	cfg := fleet.Config{Programs: c.progs, Cells: c.cells, N: c.n, Seed: c.seed, Adaptive: c.acfg,
		Checkpoint: w, Warehouse: r.wh, Metrics: r.fleetM,
		LeaseTTL: 300 * time.Millisecond, Backoff: 10 * time.Millisecond,
		BackoffCap: 50 * time.Millisecond, RetryAfter: 20 * time.Millisecond}
	if r.om != nil {
		cfg.Events, cfg.Trace = telemetry.Multi(r.agg, r.events), r.tracer
	}
	co, err := fleet.New(cfg)
	must(t, err)
	co.Start()
	defer co.Stop()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	ctx := context.Background()
	abandoned, err := (&fleet.Client{Base: srv.URL}).Lease(ctx, "abandoner")
	must(t, err)
	r.abandoned = abandoned.Status == fleet.StatusLease
	build := func(name string) (*core.Program, error) {
		for _, p := range c.progs {
			if p.Name == name {
				return p, nil
			}
		}
		return nil, fmt.Errorf("no program %q", name)
	}
	var wg sync.WaitGroup
	for i := 1; i <= []int{2, 3}[r.row[axParallel]]; i++ {
		wg.Add(1)
		go func(name string, seed int64) {
			defer wg.Done()
			if err := fleet.RunWorker(ctx, fleet.WorkerConfig{Name: name,
				Client: &fleet.Client{Base: srv.URL, JitterSeed: seed}, BuildProgram: build}); err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		}(fmt.Sprintf("w%d", i), int64(i))
	}
	select {
	case <-co.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("fleet did not converge; status %+v", co.Status())
	}
	wg.Wait()

	st, err := co.Wait()
	must(t, err)
	must(t, w.Close())
	loaded, err := core.LoadCheckpointShape(path, shape)
	must(t, err)
	m := r.fleetM
	switch {
	case r.abandoned:
		key := abandoned.Lease.CellKey
		_, done := st.Cells[key]
		_, skipped := loaded.Skips[key]
		if m.Expiries.Value() == 0 || m.Retries.Value() == 0 || !(done || skipped) {
			t.Errorf("abandoned lease on %v: %d expiries, %d retries, cell resolved %v; want it expired and re-granted",
				key, m.Expiries.Value(), m.Retries.Value(), done || skipped)
		}
	case r.row[axWarehouse] != whWarm:
		t.Errorf("no lease grantable at the start: %+v", abandoned)
	case m.Leases.Value() != 0:
		t.Errorf("warehouse resolved every cell, yet %d leases were granted", m.Leases.Value())
	}
	if m.CellsDegraded.Value() != 0 {
		t.Errorf("%d cells degraded", m.CellsDegraded.Value())
	}
	if wh := r.row[axWarehouse]; c.acfg != nil && (wh == whOff || wh == whCold) && m.AdaptiveExtensions.Value() != uint64(c.extended) {
		t.Errorf("%d extension leases, want the golden's %d extended cells", m.AdaptiveExtensions.Value(), c.extended)
	}

	// The checkpoint holds the returned study, and a render resumed from
	// it (the path hlfibench takes) runs no cell.
	if !reflect.DeepEqual(loaded.Cells, st.Cells) {
		t.Errorf("checkpoint differs from the returned study:\n  file  %+v\n  study %+v", loaded.Cells, st.Cells)
	}
	render := &captureRecorder{}
	rendered, err := core.RunStudy(core.StudyConfig{Programs: c.progs, Cells: c.cells, N: c.n, Seed: c.seed,
		Adaptive: c.acfg, Resume: loaded, Events: render})
	must(t, err)
	if ran := render.count(telemetry.EventCellDone) + render.count(telemetry.EventCellExtend); ran != 0 {
		t.Errorf("fleet render ran %d cells, want every cell from the checkpoint", ran)
	}
	if matrixReport(rendered) != matrixReport(st) {
		t.Error("the checkpoint's render differs from the returned study's")
	}
	return st, checkpointBody(t, path)
}

// resume writes a checkpoint under the other policy (sequential, with no
// instrumentation or warehouse), cuts it in the middle of one record as
// a killed writer would — the second record, or with last the final
// one — and resumes it under the row's policy, appending to the same
// file.
func (r *rowRun) resume(last bool, mutate func(*core.StudyConfig)) (*core.Study, []string) {
	t, c := r.t, r.class
	replay, compiled := matrixPolicy(otherPolicy(r.row[axPolicy]))
	_, path := (&rowRun{t: t, class: c, dir: r.dir}).checkpointed("resume.jsonl", replay, compiled, nil, nil)
	raw, err := os.ReadFile(path)
	must(t, err)
	lines := strings.SplitAfter(strings.TrimSuffix(string(raw), "\n"), "\n")
	cut := 2
	if last {
		cut = len(lines) - 1
	}
	kept := strings.Join(lines[:cut], "")
	must(t, os.WriteFile(path, []byte(kept+lines[cut][:len(lines[cut])/2]), 0o644))
	state, err := core.LoadCheckpointShape(path, c.shape(r.replay, r.compiled, ""))
	must(t, err)
	if !last && len(state.Cells)+len(state.Skips) != 1 {
		t.Fatalf("cut checkpoint restores %d records, want 1", len(state.Cells)+len(state.Skips))
	}
	w, err := core.OpenCheckpointAppend(path)
	must(t, err)
	st := r.study(r.replay, r.compiled, func(cfg *core.StudyConfig) {
		cfg.Resume, cfg.Checkpoint = state, w
		if mutate != nil {
			mutate(cfg)
		}
	})
	must(t, w.Close())
	return st, checkpointBody(t, path)
}

// openWarehouse prepares the row's store: empty (cold), filled by one
// sequential fast study (warm), or filled and then the record of the
// last completed canonical cell altered on disk (corrupt). The store's
// counters start fresh for the row's own studies.
func (r *rowRun) openWarehouse() {
	t, c := r.t, r.class
	store, err := warehouse.Open(filepath.Join(r.dir, "wh"))
	must(t, err)
	r.wh = store.ForStudy(c.shape(nil, nil, ""), c.progs)
	if r.row[axWarehouse] != whCold {
		replay, compiled := matrixPolicy(polFast)
		(&rowRun{t: t, class: c, wh: r.wh}).study(replay, compiled, nil)
	}
	if r.row[axWarehouse] == whCorrupt {
		var key core.CellKey
		for _, k := range c.cells {
			if c.golden.Cells[k] != nil {
				key = k
			}
		}
		// Change the last digit of its candidate count: the record stays
		// well-formed JSON with valid counts, so only the checksum can
		// tell.
		kh, _ := r.wh.KeyHex(key, c.n, c.n)
		path := filepath.Join(store.Dir(), "objects", kh[:2], kh[2:4], kh+".json")
		raw, err := os.ReadFile(path)
		must(t, err)
		i := strings.Index(string(raw), `"dynCandidates":`) + len(`"dynCandidates":`)
		for raw[i+1] >= '0' && raw[i+1] <= '9' {
			i++
		}
		raw[i] = '0' + (raw[i]-'0'+1)%10
		must(t, os.WriteFile(path, raw, 0o644))
	}
	store.Hits, store.Misses, store.Stores = &obs.Counter{}, &obs.Counter{}, &obs.Counter{}
}

// count returns how many events of type typ the recorder holds.
func (c *captureRecorder) count(typ string) (n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.events {
		if e.Type == typ {
			n++
		}
	}
	return n
}

// runRow runs one row and checks it against its class golden plus the
// row's non-vacuity conditions.
func runRow(t *testing.T, c *matrixClass, row matrixRow) *rowRun {
	r := &rowRun{t: t, class: c, row: row, dir: t.TempDir()}
	delivery := matrixAxes[axDelivery].values[row[axDelivery]]
	if row[axDelivery] != delFleet {
		r.replay, r.compiled = matrixPolicy(row[axPolicy])
	}
	if row[axInstr] == 1 {
		var err error
		r.tracer, err = trace.New(trace.Options{Head: trace.Header{N: c.n, Seed: c.seed}})
		must(t, err)
		r.om, r.agg, r.events = obs.New(), telemetry.NewAggregator(), &captureRecorder{}
		core.BindMetrics(r.om, r.agg, r.replay, r.compiled)
	}
	wh := row[axWarehouse]
	if wh != whOff {
		r.openWarehouse()
	}
	var st *core.Study
	var body []string
	switch k, merge := strings.CutPrefix(delivery, "merge"); {
	case merge:
		shards, err := strconv.Atoi(k)
		must(t, err)
		st, body = r.merge(shards)
	case delivery == "direct":
		var path string
		st, path = r.checkpointed("direct.jsonl", r.replay, r.compiled, nil, nil)
		body = checkpointBody(t, path)
	case delivery == "resume":
		st, body = r.resume(false, nil)
	case delivery == "fleet":
		st, body = r.fleet()
	}
	c.matchGolden(t, st, body)

	// Warehouse: a cold store is filled, a warm one serves every lookup,
	// and a corrupt record misses once: its cell re-executes and is
	// stored again.
	executed := wh != whWarm
	if wh != whOff {
		hits, misses, stores := r.wh.Store().Hits.Value(), r.wh.Store().Misses.Value(), r.wh.Store().Stores.Value()
		switch {
		case wh == whCold && stores == 0:
			t.Error("cold warehouse stored nothing")
		case wh == whWarm && (misses != 0 || hits == 0):
			t.Errorf("warm warehouse: %d hits, %d misses, want all hits", hits, misses)
		case wh == whCorrupt && (misses != 1 || stores != 1):
			t.Errorf("corrupt record: %d misses, %d stores, want its one cell re-executed and re-stored", misses, stores)
		}
	}
	if r.events != nil && row[axDelivery] != delFleet {
		switch done := r.events.count(telemetry.EventCellDone); {
		case wh == whWarm && (done != 0 || r.events.count(telemetry.EventWarehouseHit) == 0):
			t.Errorf("warm warehouse row executed %d cells, %d warehouse hits", done, r.events.count(telemetry.EventWarehouseHit))
		case wh == whCorrupt && done != 1:
			t.Errorf("corrupt-record row executed %d cells, want 1", done)
		}
	}

	if r.om != nil {
		// Scrape once: the read-at-scrape series take their owners' values.
		must(t, r.om.Registry().WritePrometheus(io.Discard))
	}
	// Policy: the fast engines must really have run (fleet rows arm none:
	// their workers run the fleet's own policy).
	if r.replay != nil && executed {
		if stats := r.replay.Stats; stats.Hits()+stats.Misses() == 0 || (row[axPolicy] == polFast && stats.Hits() == 0) {
			t.Errorf("replay recorded %d hits, %d misses", stats.Hits(), stats.Misses())
		}
		if r.om != nil && (r.om.CompiledAttempts.Value() == 0 || r.om.CompiledFallbacks.Value() != 0) {
			t.Errorf("%d compiled attempts, %d fallbacks", r.om.CompiledAttempts.Value(), r.om.CompiledFallbacks.Value())
		}
	}
	if r.om != nil {
		checkInstrumentation(t, r, executed)
	}
	return r
}

// checkInstrumentation checks that the observers saw the row's studies:
// metrics counters, one finished campaign root per study with one scan
// and one run span per cell and extension span, and converged and
// cycled attempts counted alike in the replay stats, study_done and the
// summary.
func checkInstrumentation(t *testing.T, r *rowRun, executed bool) {
	t.Helper()
	if r.row[axDelivery] == delFleet {
		checkFleetInstrumentation(t, r)
		return
	}
	om := r.om
	if executed && (om.Attempts.Value() == 0 || om.TraceAttempts.Value() == 0) {
		t.Errorf("attempt counters %d, trace attempts %d: the registry saw no attempts",
			om.Attempts.Value(), om.TraceAttempts.Value())
	}
	if om.CellsInFlight.Value() != 0 {
		t.Errorf("cells-in-flight gauge = %d after the study", om.CellsInFlight.Value())
	}
	if want, st := uint64(len(r.class.golden.Cells)), r.agg.Status(); r.row[axDelivery] == delDirect && r.class.acfg == nil &&
		om.CellsDone.Value()+uint64(st.CellsWarehoused) != want {
		t.Errorf("cells done %d + warehoused %d, want %d", om.CellsDone.Value(), st.CellsWarehoused, want)
	}
	counts := map[string]int{}
	for _, s := range r.tracer.Snapshot() {
		counts[s.Kind]++
		if s.End == 0 {
			t.Errorf("unfinished span %+v", s)
		}
	}
	if counts[trace.KindCampaign] != r.runs {
		t.Errorf("%d campaign roots for %d studies", counts[trace.KindCampaign], r.runs)
	}
	cells, runs := counts[trace.KindCell], counts[trace.KindCell]+counts[trace.KindExtension]
	if counts[trace.KindScan] != runs || counts[trace.KindRun] != runs || (executed && cells == 0) {
		t.Errorf("trace spans %v, want one scan and one run per cell and extension", counts)
	}
	var done []telemetry.Event
	for _, e := range r.events.events {
		if e.Type == telemetry.EventStudyDone {
			done = append(done, e)
		}
	}
	if len(done) != r.runs {
		t.Fatalf("%d study_done events for %d studies", len(done), r.runs)
	}
	if r.replay == nil || r.row[axDelivery] != delDirect {
		return
	}
	n, c := r.replay.Stats.Converged(), r.replay.Stats.Cycled()
	if done[0].ConvergedAttempts != n || done[0].CycledAttempts != c {
		t.Errorf("converged, cycled attempts: replay stats %d, %d; study_done %d, %d", n, c, done[0].ConvergedAttempts, done[0].CycledAttempts)
	}
	if want := fmt.Sprintf(", %d converged, %d hang cycles (", n, c); executed && !strings.Contains(r.agg.RenderTelemetry(), want) {
		t.Errorf("telemetry summary lacks %q:\n%s", want, r.agg.RenderTelemetry())
	}
}

// checkFleetInstrumentation checks that a fleet row's coordinator events
// and timeline tell its story: one finished campaign root, a
// fleet_lease event per grant, and one worker exec span per lease the
// workers took, each under its granting lease span.
func checkFleetInstrumentation(t *testing.T, r *rowRun) {
	t.Helper()
	leases := r.fleetM.Leases.Value()
	if got := r.events.count(telemetry.EventFleetLease); uint64(got) != leases {
		t.Errorf("%d fleet_lease events for %d grants", got, leases)
	}
	spans := r.tracer.Snapshot()
	byID := map[uint64]trace.Record{}
	counts := map[string]int{}
	for _, s := range spans {
		byID[s.ID] = s
		counts[s.Kind]++
		if s.End == 0 {
			t.Errorf("unfinished span %+v", s)
		}
	}
	if counts[trace.KindCampaign] != 1 {
		t.Errorf("%d campaign roots, want the coordinator's one", counts[trace.KindCampaign])
	}
	if counts[trace.KindScan]+counts[trace.KindRun] != 0 {
		t.Errorf("fleet jobs emitted scan or run spans: %v", counts)
	}
	if r.abandoned {
		leases--
	}
	if uint64(counts[trace.KindExec]) != leases {
		t.Errorf("%d exec spans for %d leases the workers took (spans %v)", counts[trace.KindExec], leases, counts)
	}
	for _, s := range spans {
		if p := byID[s.Parent]; s.Kind == trace.KindExec && (p.Kind != trace.KindLease || p.Worker != s.Worker) {
			t.Errorf("exec span %+v is not under its worker's lease span (parent %+v)", s, p)
		}
	}
}

// newMatrixClass runs the class golden: reference policy, parallel 1,
// direct into a checkpoint, no warehouse, no instrumentation.
func newMatrixClass(t *testing.T, progs []*core.Program, cells []core.CellKey, n int, seed int64, acfg *adaptive.Config) *matrixClass {
	t.Helper()
	c := &matrixClass{progs: progs, cells: cells, n: n, seed: seed, acfg: acfg}
	var path string
	c.golden, path = (&rowRun{t: t, class: c, dir: t.TempDir()}).checkpointed("golden.jsonl", nil, nil, nil, nil)
	c.report, c.body = matrixReport(c.golden), checkpointBody(t, path)
	for _, res := range c.golden.Cells {
		if res.Adaptive.Extended {
			c.extended++
		}
	}
	return c
}

// TestStudyMatrix runs the all-pairs row set over the axes above on
// matrixSrc, plus one row class over all six benchmarks (reference
// golden against the fast policy at parallel 4, instrumented).
func TestStudyMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("the differential matrix runs about seventy studies")
	}
	rows := matrixRows()
	if missing := uncoveredPairs(rows, false); len(missing) != 0 {
		t.Fatalf("row set leaves %d axis-value pairs uncovered: %v", len(missing), missing)
	}

	p, err := core.BuildProgram("matrix.c", matrixSrc)
	must(t, err)
	progs := []*core.Program{p}
	classes := map[[2]int]*matrixClass{}
	for _, ad := range []int{0, 1} {
		for _, variant := range []int{0, 1} {
			cells := core.CanonicalCells(progs, []fault.Category{fault.CatAll, fault.CatArith, fault.CatCmp, fault.CatCast})
			if variant == 1 {
				cells = core.CalibrationCells(progs)
			}
			n, acfg := 10, (*adaptive.Config)(nil)
			if ad == 1 {
				n, acfg = 40, &adaptive.Config{Eps: 0.1, MinN: 16, Check: 8}
			}
			c := newMatrixClass(t, progs, cells, n, 9, acfg)
			if ad == 1 {
				requireAdaptiveShape(t, c.golden, n)
			}
			classes[[2]int{ad, variant}] = c
		}
	}
	for _, row := range rows {
		row := row
		t.Run(row.String(), func(t *testing.T) {
			runRow(t, classes[[2]int{row[axAdaptive], row[axVariant]}], row)
		})
	}

	// A checkpoint cut inside its last record, an adaptive extension: the
	// resume plans round 2 again and re-runs exactly that extension.
	t.Run("adaptive-extension-cut", func(t *testing.T) {
		c := classes[[2]int{1, 0}]
		r := &rowRun{t: t, class: c, row: matrixRow{axAdaptive: 1}, dir: t.TempDir()}
		events := &captureRecorder{}
		st, body := r.resume(true, func(cfg *core.StudyConfig) { cfg.Events = events })
		c.matchGolden(t, st, body)
		if done, ext := events.count(telemetry.EventCellDone), events.count(telemetry.EventCellExtend); done != 0 || ext != 1 {
			t.Errorf("resume ran %d cells and %d extensions, want only the cut extension", done, ext)
		}
	})

	t.Run("six-benchmarks", func(t *testing.T) {
		progs, err := bench.BuildAll()
		must(t, err)
		c := newMatrixClass(t, progs, core.CanonicalCells(progs, nil), 12, 3, nil)
		r := runRow(t, c, matrixRow{axPolicy: polFast, axParallel: 1, axInstr: 1})
		// On real workloads the fast policy must also converge, and end
		// some hangs at a repeated state.
		if r.replay.Stats.Converged() == 0 {
			t.Error("no attempt converged on the six benchmarks")
		}
		if r.replay.Stats.Cycled() == 0 {
			t.Error("no hang attempt cycled on the six benchmarks")
		}
	})
}

// requireAdaptiveShape guards the adaptive fixture: some cells must stop
// early and some must be extended, or the adaptive rows prove nothing.
func requireAdaptiveShape(t *testing.T, st *core.Study, n int) {
	t.Helper()
	converged, extended := 0, 0
	for key, c := range st.Cells {
		switch {
		case c.Adaptive.Target == 0:
			t.Fatalf("cell %v carries no adaptive target", key)
		case c.Adaptive.Extended && c.Adaptive.Target <= n:
			t.Fatalf("extended cell %v target %d not above %d", key, c.Adaptive.Target, n)
		case c.Adaptive.Extended:
			extended++
		case c.Adaptive.Converged:
			converged++
		}
	}
	if converged == 0 || extended == 0 {
		t.Fatalf("adaptive fixture degenerate: %d converged, %d extended", converged, extended)
	}
}
