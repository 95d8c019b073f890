// Checkpoint/resume for campaign studies. A checkpoint is a JSONL file:
// one header line identifying the study shape, then one line per
// completed (or skipped) cell, appended and fsynced as cells finish. A
// resumed study loads the file, skips every recorded cell, and — because
// each cell derives its seed independently via cellSeed — produces
// output byte-identical to an uninterrupted run.
//
// Schema (one JSON object per line):
//
//	{"type":"study","version":1,"n":1000,"seed":1,"replay":"off",
//	 "compiled":"on","adaptive":"off"}
//	{"type":"cell","benchmark":"bzip2m","level":"LLFI","category":"all",
//	 "result":{"benign":...,"sdc":...,"crash":...,"hang":...,
//	           "notActivated":...,"attempts":...,"simFaults":...,
//	           "dynCandidates":...}}
//	{"type":"skip","benchmark":"mcfm","level":"PINFI","category":"cast",
//	 "kind":"no-candidates","err":"..."}
//	{"type":"skip","benchmark":"mcfm","level":"LLFI","category":"all",
//	 "kind":"deadline","err":"...","target":36,"base":24}
//
// A skip line tagged with "target" and "base" records an abandoned
// adaptive extension: the skip the cell's (target, base) round-2 run
// ended in. It sits next to the cell's round-1 record, which the cell
// keeps, so -resume resolves the extension from it instead of running
// it again.
//
// The four cell-identity fields are core.CellKey, embedded: the same
// fields name a cell in warehouse records and fleet leases and
// completions. Cell and skip lines of a non-paper cell variant carry
// "variant" (1 calibrated, 2 resampled); paper cells and the header
// omit it, and the header carries none of the four.
//
// The header's n, seed and adaptive fields are the study identity
// (CheckpointShape.Identity): resume and merge refuse a file whose
// identity differs. replay and compiled record the execution policy of
// the run that created the file and are never compared. A header with
// "seeding":"per-attempt" was written by the removed -cell-workers
// discipline; its cells are a different sample, so the loader refuses
// it.
//
// Lines are written in completion order (not canonical cell order — the
// durability path is deliberately decoupled from the reorder buffer that
// keeps progress and telemetry canonical), and the loader is
// order-independent: for duplicate cells the last record wins.
package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
)

// checkpointVersion guards the on-disk schema.
const checkpointVersion = 1

// Skip kinds recorded in checkpoint skip lines.
const (
	SkipNoCandidates = "no-candidates"
	SkipNotActivated = "not-activated"
	SkipDeadline     = "deadline"
	// SkipFleet marks a cell degraded by the fleet coordinator after its
	// retry budget ran out (every lease expired or failed): the fleet
	// analogue of the wall-clock deadline path.
	SkipFleet = "fleet-failed"
)

// CheckpointWriteError is the typed failure of a checkpoint append: the
// write or fsync of one cell record did not reach stable storage. The
// writer goes sticky after the first such failure — no further records
// are appended, so the file keeps a valid, fully-fsynced prefix instead
// of an interleaved corrupt tail. The study treats it as a hard error,
// whichever executor ran the cell: silently continuing would hand a
// later -resume a checkpoint it must not trust.
type CheckpointWriteError struct {
	Path string
	Err  error
}

func (e *CheckpointWriteError) Error() string {
	return fmt.Sprintf("checkpoint %s: write failed, aborting (the file retains a valid prefix of fully-synced records): %v", e.Path, e.Err)
}

func (e *CheckpointWriteError) Unwrap() error { return e.Err }

// CheckpointTruncatedError is the typed failure of loading a checkpoint
// that was cut off before its study header reached stable storage: a
// zero-byte file (crash between create and the first fsynced line) or a
// file whose only content is the torn header line itself. Both are the
// benign debris of a killed writer, not corruption — but they carry no
// study shape, so neither -resume nor -merge can use them. Callers can
// errors.As on this type to offer "delete it and start fresh" instead
// of surfacing a bare io.EOF or JSON parse error.
type CheckpointTruncatedError struct {
	Path string
	Size int64
}

func (e *CheckpointTruncatedError) Error() string {
	return fmt.Sprintf("checkpoint %s: truncated before the study header was written (%d bytes, no complete record): the writer was killed before its first fsync; delete the file and start a fresh run", e.Path, e.Size)
}

type checkpointLine struct {
	Type string `json:"type"` // "study" | "cell" | "skip"

	// Header fields (type "study"). N, Seed and Adaptive are the study
	// identity (CheckpointShape.Identity). Replay and Compiled are
	// provenance: the execution policy of the run that created the file,
	// never compared on resume or merge. Shard ("i/N") marks the
	// checkpoint of one shard worker owning the canonical cells with
	// index%N == i; unsharded studies carry no field. Seeding is read
	// only: no header is written with it, and a loaded "per-attempt"
	// (the removed -cell-workers discipline) is refused.
	Version  int    `json:"version,omitempty"`
	N        int    `json:"n,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Replay   string `json:"replay,omitempty"`
	Compiled string `json:"compiled,omitempty"`
	Shard    string `json:"shard,omitempty"`
	Adaptive string `json:"adaptive,omitempty"`
	Seeding  string `json:"seeding,omitempty"`

	CellKey // cell identity (types "cell" and "skip"); zero on the header

	Result          *CellRecord `json:"result,omitempty"` // type "cell"
	*CheckpointSkip             // type "skip"

	// Target and Base tag a skip line as an abandoned adaptive
	// extension from Base to Target activations.
	Target int `json:"target,omitempty"`
	Base   int `json:"base,omitempty"`
}

// CellRecord is the persisted form of one completed cell: CellResult
// without the cell identity, in stable lower-case JSON. Checkpoint
// cell lines, warehouse payloads and fleet completions all carry it.
type CellRecord struct {
	Benign        int    `json:"benign"`
	SDC           int    `json:"sdc"`
	Crash         int    `json:"crash"`
	Hang          int    `json:"hang"`
	NotActivated  int    `json:"notActivated"`
	Attempts      int    `json:"attempts"`
	SimFaults     int    `json:"simFaults,omitempty"`
	DynCandidates uint64 `json:"dynCandidates"`

	// Adaptive-sampling fields (absent on fixed-n records). Target is
	// the activated target the record ran under; Round1 snapshots the
	// counts at the round-1 boundary of an extended record, so any
	// process holding the record recomputes the identical reallocation
	// plan without re-running the cell.
	Target    int             `json:"target,omitempty"`
	Converged bool            `json:"converged,omitempty"`
	Round1    *AdaptiveCounts `json:"round1,omitempty"`
}

// RecordOf converts a cell result to its persisted record.
func RecordOf(res *CellResult) *CellRecord {
	r := &CellRecord{
		Benign: res.Benign, SDC: res.SDC, Crash: res.Crash, Hang: res.Hang,
		NotActivated: res.NotActivated, Attempts: res.Attempts,
		SimFaults: res.SimFaults, DynCandidates: res.DynCandidates,
	}
	if a := res.Adaptive; a.Target > 0 {
		r.Target, r.Converged = a.Target, a.Converged
		if a.Extended {
			round1 := a.Round1
			r.Round1 = &round1
		}
	}
	return r
}

// InvalidRecordError reports a cell record no campaign can produce:
// a negative count, attempts that do not add up to the outcome counts,
// no activated attempt, or a round-1 snapshot on a fixed-n record.
type InvalidRecordError struct {
	Reason string
}

func (e *InvalidRecordError) Error() string {
	return "invalid cell record: " + e.Reason
}

// Validate checks the invariants every completed campaign satisfies. It
// runs wherever a record crosses a process or disk boundary (checkpoint
// load, warehouse read, fleet completion), so a corrupt or hostile
// record is refused there instead of rendered.
func (r *CellRecord) Validate() error {
	reason := countsProblem(r.Benign, r.SDC, r.Crash, r.Hang, r.NotActivated, r.Attempts, r.SimFaults)
	switch {
	case reason != "":
	case r.Benign+r.SDC+r.Crash+r.Hang == 0:
		reason = "no activated attempt"
	case r.Target < 0:
		reason = fmt.Sprintf("negative target %d", r.Target)
	case r.Round1 != nil && r.Target == 0:
		reason = "round-1 snapshot on a fixed-n record"
	case r.Round1 != nil:
		c := r.Round1
		if p := countsProblem(c.Benign, c.SDC, c.Crash, c.Hang, c.NotActivated, c.Attempts, c.SimFaults); p != "" {
			reason = "round 1: " + p
		}
	}
	if reason != "" {
		return &InvalidRecordError{Reason: reason}
	}
	return nil
}

// countsProblem describes what is wrong with a record's counts, or
// returns "": every count is non-negative, and the outcomes, the
// non-activated draws and the contained simulator panics add up to the
// attempts.
func countsProblem(benign, sdc, crash, hang, notActivated, attempts, simFaults int) string {
	for _, n := range []int{benign, sdc, crash, hang, notActivated, attempts, simFaults} {
		if n < 0 {
			return fmt.Sprintf("negative count %d", n)
		}
	}
	if sum := benign + sdc + crash + hang + notActivated + simFaults; sum != attempts {
		return fmt.Sprintf("%d attempts, but the outcomes add up to %d", attempts, sum)
	}
	return ""
}

// Result converts a persisted record back to the cell result of key.
func (r *CellRecord) Result(key CellKey) *CellResult {
	res := &CellResult{
		Prog: key.Prog, Level: key.Level, Category: key.Category,
		Benign: r.Benign, SDC: r.SDC, Crash: r.Crash, Hang: r.Hang,
		NotActivated: r.NotActivated, Attempts: r.Attempts,
		SimFaults: r.SimFaults, DynCandidates: r.DynCandidates,
	}
	if r.Target > 0 {
		res.Adaptive.Target, res.Adaptive.Converged = r.Target, r.Converged
		if r.Round1 != nil {
			res.Adaptive.Extended, res.Adaptive.Round1 = true, *r.Round1
		}
	}
	return res
}

// CheckpointSkip records one cell skipped for a soft reason. Checkpoint
// skip lines, warehouse payloads and fleet completions all carry it.
type CheckpointSkip struct {
	Kind string `json:"kind"`
	Err  string `json:"err"`
}

// SkipOf classifies a soft-skip error as a skip record, so the same
// cell skipped by any execution path (local study, shard worker, fleet
// worker) carries the same kind.
func SkipOf(err error) CheckpointSkip {
	kind := "error"
	switch {
	case errors.Is(err, ErrNoCandidates):
		kind = SkipNoCandidates
	case errors.Is(err, ErrNotActivated):
		kind = SkipNotActivated
	case errors.Is(err, ErrDeadline):
		kind = SkipDeadline
	}
	return CheckpointSkip{Kind: kind, Err: err.Error()}
}

// CheckpointShape describes a study as a checkpoint header records it.
// Identity lists the fields that determine cell outcomes; Replay and
// Compiled are provenance only (proven byte-identical by the
// differential oracles) and Shard is the worker's share of the cells.
type CheckpointShape struct {
	N        int
	Seed     int64
	Replay   string // ReplayConfig.Signature: provenance only
	Compiled string // CompiledConfig.Signature: provenance only
	Adaptive string // adaptive.Config.Signature ("off" or "eps=…,min=…,check=…")
	Shard    string // "i/N", or "" for an unsharded study
}

// Normalized maps an empty replay, compiled, or adaptive signature onto
// the explicit "off": headers written before a field existed carry no
// value for it, and an empty argument means the feature is off. Every
// header written, loaded, merged, or hashed into a warehouse key goes
// through this one rule.
func (s CheckpointShape) Normalized() CheckpointShape {
	for _, sig := range []*string{&s.Replay, &s.Compiled, &s.Adaptive} {
		if *sig == "" {
			*sig = "off"
		}
	}
	return s
}

// IdentityField is one named, outcome-determining field of a study.
// About names the input behind it for error messages.
type IdentityField struct {
	Name, Value, About string
}

// Identity lists, in a fixed order, every shape field that determines
// cell outcomes. Resume and merge compare exactly this list and the
// warehouse key hashes it; a new outcome-determining input (a fault
// model, say) becomes one more entry here.
func (s CheckpointShape) Identity() []IdentityField {
	s = s.Normalized()
	return []IdentityField{
		{"n", strconv.Itoa(s.N), "the injection count (-n)"},
		{"seed", strconv.FormatInt(s.Seed, 10), "the study seed (-seed)"},
		{"adaptive", s.Adaptive, "adaptive sampling (-adaptive)"},
	}
}

// CheckIdentity compares got's identity against the expected identity
// s and reports the first differing field as a *HeaderMismatchError for
// file. reference names the file whose header set the expectation, or
// "" when it is the current run's own configuration.
func (s CheckpointShape) CheckIdentity(got CheckpointShape, file, reference string) error {
	want, have := s.Identity(), got.Identity()
	for i := range want {
		if want[i] != have[i] {
			return &HeaderMismatchError{File: file, Reference: reference,
				Field: want[i].Name, Want: want[i].Value, Got: have[i].Value, about: want[i].About}
		}
	}
	return nil
}

// CheckpointState is the loaded content of a checkpoint file: completed
// cells to restore and soft-skipped cells to skip again without
// re-running.
type CheckpointState struct {
	N     int
	Seed  int64
	Shard string // "i/N" for a shard worker's checkpoint, "" otherwise
	Cells map[CellKey]*CellResult
	Skips map[CellKey]CheckpointSkip
	// abandoned holds the abandonment line of each cell's abandoned
	// adaptive extension; the cell's round-1 record stays in Cells.
	abandoned map[CellKey]checkpointLine
}

// LoadCheckpointShape reads a checkpoint and validates its header
// against the expected study shape: every identity field must match
// (resuming into a different study would produce results no
// uninterrupted run could), and so must the shard spec — a shard worker
// can only resume its own shard's checkpoint, and an unsharded study
// refuses a shard-tagged file (merge it instead).
func LoadCheckpointShape(path string, shape CheckpointShape) (*CheckpointState, error) {
	st, hdr, err := readCheckpoint(path)
	if err != nil {
		return nil, err
	}
	if err := shape.CheckIdentity(hdr, path, ""); err != nil {
		return nil, err
	}
	if hdr.Shard != shape.Shard {
		switch {
		case shape.Shard == "":
			return nil, fmt.Errorf("checkpoint %s belongs to shard %s; refusing to resume it as an unsharded study (use -merge, or resume with -shard %s)",
				path, hdr.Shard, hdr.Shard)
		case hdr.Shard == "":
			return nil, fmt.Errorf("checkpoint %s belongs to an unsharded study; refusing to resume it as shard %s",
				path, shape.Shard)
		default:
			return nil, fmt.Errorf("checkpoint %s belongs to shard %s; refusing to resume it as shard %s",
				path, hdr.Shard, shape.Shard)
		}
	}
	return st, nil
}

// readCheckpoint parses a checkpoint file without shape expectations,
// returning the restored state and the normalized header shape it was
// written under. Callers validate the shape (LoadCheckpointShape for
// resume, MergeShardCheckpoints for merge).
//
// Every complete record ends in a newline before it is fsynced, so a
// process killed mid-append can leave at most one torn line, and only
// at the very end of the file with no trailing newline. That tail is
// dropped (the cell it described simply re-runs); a malformed line
// anywhere else is real corruption and still fails the load.
func readCheckpoint(path string) (*CheckpointState, CheckpointShape, error) {
	var hdr CheckpointShape
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, hdr, err
	}
	tornTail := len(data) > 0 && data[len(data)-1] != '\n'

	st := &CheckpointState{
		Cells:     make(map[CellKey]*CellResult),
		Skips:     make(map[CellKey]CheckpointSkip),
		abandoned: make(map[CellKey]checkpointLine),
	}
	lines := bytes.Split(data, []byte{'\n'})
	sawHeader := false
	for lineNo, raw := range lines {
		if len(raw) == 0 {
			continue
		}
		var line checkpointLine
		if err := json.Unmarshal(raw, &line); err != nil {
			if tornTail && lineNo == len(lines)-1 {
				break // torn final record of a killed writer: ignore
			}
			return nil, hdr, fmt.Errorf("checkpoint %s:%d: %w", path, lineNo+1, err)
		}
		switch line.Type {
		case "study":
			if line.Version != checkpointVersion {
				return nil, hdr, fmt.Errorf("checkpoint %s: version %d (supported: %d)",
					path, line.Version, checkpointVersion)
			}
			if line.Seeding != "" && line.Seeding != "sequential" {
				return nil, hdr, &HeaderMismatchError{File: path, Field: "seeding",
					Want: "sequential", Got: line.Seeding}
			}
			hdr = CheckpointShape{N: line.N, Seed: line.Seed, Replay: line.Replay,
				Compiled: line.Compiled, Adaptive: line.Adaptive, Shard: line.Shard}.Normalized()
			st.N, st.Seed, st.Shard = line.N, line.Seed, line.Shard
			sawHeader = true
		case "cell":
			key, err := line.key()
			if err != nil {
				return nil, hdr, fmt.Errorf("checkpoint %s:%d: %w", path, lineNo+1, err)
			}
			if line.Result == nil {
				return nil, hdr, fmt.Errorf("checkpoint %s:%d: cell line without result", path, lineNo+1)
			}
			if err := line.Result.Validate(); err != nil {
				return nil, hdr, fmt.Errorf("checkpoint %s:%d: %w", path, lineNo+1, err)
			}
			st.Cells[key] = line.Result.Result(key)
			delete(st.Skips, key)
		case "skip":
			key, err := line.key()
			if err != nil {
				return nil, hdr, fmt.Errorf("checkpoint %s:%d: %w", path, lineNo+1, err)
			}
			if line.CheckpointSkip == nil {
				return nil, hdr, fmt.Errorf("checkpoint %s:%d: skip line without kind", path, lineNo+1)
			}
			if line.Target == 0 && line.Base == 0 {
				st.Skips[key] = *line.CheckpointSkip
				delete(st.Cells, key)
				continue
			}
			if line.Base <= 0 || line.Target <= line.Base {
				return nil, hdr, fmt.Errorf("checkpoint %s:%d: abandoned extension from base %d to target %d",
					path, lineNo+1, line.Base, line.Target)
			}
			st.abandoned[key] = line
		default:
			return nil, hdr, fmt.Errorf("checkpoint %s:%d: unknown record type %q", path, lineNo+1, line.Type)
		}
	}
	if !sawHeader {
		// A file with complete records but no header is real corruption
		// (or not a checkpoint at all); an empty file or one holding
		// only the torn header line is the debris of a writer killed
		// before its first fsync, reported as a typed truncation.
		for lineNo, raw := range lines {
			if len(raw) == 0 || (tornTail && lineNo == len(lines)-1) {
				continue
			}
			return nil, hdr, fmt.Errorf("checkpoint %s: missing study header line", path)
		}
		return nil, hdr, &CheckpointTruncatedError{Path: path, Size: int64(len(data))}
	}
	return st, hdr, nil
}

// key is the cell a "cell" or "skip" line names. Decoding already
// refused an unknown level or category name; a line that names no level
// or category, or a variant no injector runs, is refused here.
func (l *checkpointLine) key() (CellKey, error) {
	if l.Level == 0 || l.Category == 0 {
		return CellKey{}, fmt.Errorf("%s line without a level and category", l.Type)
	}
	return l.CellKey, checkVariant(l.Level, l.Variant)
}

// checkpointFile is the durability surface a CheckpointWriter appends
// through. *os.File is the production implementation; tests substitute
// a failing fake to exercise the write-error path.
type checkpointFile interface {
	io.Writer
	Sync() error
	Close() error
}

// CheckpointWriter appends cell records to a checkpoint file as they
// complete, syncing after every line so a SIGKILL loses at most the
// in-flight cell. Safe for concurrent use by the cell scheduler.
//
// The writer is fail-stop: the first write or fsync error is recorded
// as a *CheckpointWriteError and every later append returns it without
// touching the file, so a failed record can never be followed by more
// bytes that would interleave with its partial tail.
type CheckpointWriter struct {
	mu   sync.Mutex
	path string
	f    checkpointFile
	enc  *json.Encoder
	werr error // sticky first write failure
}

// NewCheckpointWriterShape creates (or truncates) a checkpoint file and
// writes the full study-shape header, including the shard spec for
// shard workers.
func NewCheckpointWriterShape(path string, shape CheckpointShape) (*CheckpointWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &CheckpointWriter{path: path, f: f, enc: json.NewEncoder(f)}
	shape = shape.Normalized()
	line := checkpointLine{Type: "study", Version: checkpointVersion,
		N: shape.N, Seed: shape.Seed, Replay: shape.Replay, Compiled: shape.Compiled,
		Adaptive: shape.Adaptive, Shard: shape.Shard}
	if err := w.append(line); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// OpenCheckpointAppend reopens an existing checkpoint (already carrying
// a header) so a resumed study keeps checkpointing into the same file.
// A torn final record, which the loader ignored, is cut off first:
// appending after it would fuse it with the next record into a corrupt
// line the following load rejects.
func OpenCheckpointAppend(path string) (*CheckpointWriter, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := os.Truncate(path, int64(bytes.LastIndexByte(data, '\n')+1)); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &CheckpointWriter{path: path, f: f, enc: json.NewEncoder(f)}, nil
}

// append writes and fsyncs one line; a nil writer writes nothing.
func (w *CheckpointWriter) append(line checkpointLine) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.werr != nil {
		return w.werr
	}
	if err := w.enc.Encode(line); err != nil {
		w.werr = &CheckpointWriteError{Path: w.path, Err: err}
		return w.werr
	}
	if err := w.f.Sync(); err != nil {
		w.werr = &CheckpointWriteError{Path: w.path, Err: err}
		return w.werr
	}
	return nil
}

// Cell appends one completed cell. A failure surfaces as a typed
// *CheckpointWriteError that the study treats as a hard error: a
// checkpoint the operator believes is accumulating durable state but
// silently is not would betray the next -resume.
func (w *CheckpointWriter) Cell(key CellKey, res *CellResult) error {
	return w.append(checkpointLine{Type: "cell", CellKey: key, Result: RecordOf(res)})
}

// Skip appends one soft-skipped cell so a resumed study skips it without
// re-running (keeping resumed output byte-identical).
func (w *CheckpointWriter) Skip(key CellKey, skip CheckpointSkip) error {
	return w.append(checkpointLine{Type: "skip", CellKey: key, CheckpointSkip: &skip})
}

// Close closes the underlying file.
func (w *CheckpointWriter) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
