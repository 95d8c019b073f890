package core_test

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hlfi/internal/adaptive"
	"hlfi/internal/bench"
	"hlfi/internal/core"
	"hlfi/internal/fault"
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
}{
	{"policy", []string{"reference", "fast", "fast-tight"}},
	{"parallel", []string{"1", "4"}},
	{"delivery", []string{"direct", "merge3", "resume"}},
	{"warehouse", []string{"off", "cold", "warm", "corrupt"}},
	{"instr", []string{"off", "on"}},
	{"adaptive", []string{"off", "on"}},
	{"variant", []string{"paper", "calibration"}},
}

// Axis positions in a matrixRow, and the value indexes the rows branch on.
const (
	axPolicy, axParallel, axDelivery, axWarehouse, axInstr, axAdaptive, axVariant = 0, 1, 2, 3, 4, 5, 6

	polReference, polFast, polTight  = 0, 1, 2
	delDirect, delMerge, delResume   = 0, 1, 2
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

// uncoveredPairs lists every pair of axis values no row holds.
func uncoveredPairs(rows []matrixRow) []axisPair {
	var out []axisPair
	for a := range matrixAxes {
		for b := a + 1; b < len(matrixAxes); b++ {
			for va := range matrixAxes[a].values {
				for vb := range matrixAxes[b].values {
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

// matrixRows computes an all-pairs row set greedily: each row starts
// from the first uncovered pair and fills every other axis with the
// value that covers the most still-uncovered pairs.
func matrixRows() []matrixRow {
	var rows []matrixRow
	for todo := uncoveredPairs(nil); len(todo) > 0; todo = uncoveredPairs(rows) {
		var row matrixRow
		fixed := map[int]bool{todo[0].a: true, todo[0].b: true}
		row[todo[0].a], row[todo[0].b] = todo[0].va, todo[0].vb
		for ax := range matrixAxes {
			if fixed[ax] {
				continue
			}
			bestGain := -1
			for v := range matrixAxes[ax].values {
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

// merge runs three shard workers, the middle one under the other
// policy, merges their checkpoints and renders from the merged state
// into a fourth checkpoint (which receives adaptive extensions). The
// render resolves every round-1 cell from the merged state, so it runs
// or looks up the extensions and nothing else.
func (r *rowRun) merge() (*core.Study, []string) {
	t, c := r.t, r.class
	var paths []string
	for i := 0; i < 3; i++ {
		replay, compiled := r.replay, r.compiled
		if i == 1 {
			replay, compiled = matrixPolicy(otherPolicy(r.row[axPolicy]))
		}
		_, path := r.checkpointed(fmt.Sprintf("shard-%d.jsonl", i), replay, compiled, &core.ShardSpec{Index: i, Count: 3}, nil)
		paths = append(paths, path)
	}
	merged, err := core.MergeShardCheckpoints(paths)
	must(t, err)
	if merged.Count != 3 || merged.Shape.N != c.n || merged.Shape.Seed != c.seed || merged.Shape.Adaptive != c.acfg.Signature() {
		t.Fatalf("merged shape %+v from %d shards, want 3 shards of n=%d seed=%d adaptive=%s",
			merged.Shape, merged.Count, c.n, c.seed, c.acfg.Signature())
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
	r.replay, r.compiled = matrixPolicy(row[axPolicy])
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
	switch row[axDelivery] {
	case delDirect:
		var path string
		st, path = r.checkpointed("direct.jsonl", r.replay, r.compiled, nil, nil)
		body = checkpointBody(t, path)
	case delMerge:
		st, body = r.merge()
	case delResume:
		st, body = r.resume(false, nil)
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
	if r.events != nil {
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
	// Policy: the fast engines must really have run.
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
	if missing := uncoveredPairs(rows); len(missing) != 0 {
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
