// Package warehouse implements the content-addressed result store of
// ROADMAP item 5: a durable cache of campaign cell results keyed by the
// canonical hash of everything that determines a cell's outcome — the
// program's IR and machine code, the per-cell coordinates (level,
// category and, for non-paper cells, variant), the study identity a
// checkpoint header pins (core.CheckpointShape.Identity: n, seed and
// adaptive signature, with the seed taken as the cell's effective
// campaign seed), and the cell's activated-injection target.
// Two campaigns that would provably produce the same record share one
// warehouse entry; any input change produces a different key, so a
// lookup can never return a result the current configuration would not
// recompute.
//
// The key derivation deliberately reuses core.CheckpointShape instead of
// inventing a second study identity, so everything outside Identity is
// excluded by construction: the shard spec (cells are relocatable;
// CellSeed is a pure function of cell identity), the replay and
// compiled signatures (execution policy proven byte-identical by their
// differential oracles), deadlines, the sim-fault containment limit and
// attempt tracing. Records that exist only under a particular policy
// (deadline skips, hard failures) are never stored.
//
// Storage is fail-stop in the house style: one fsynced JSON record per
// cell under a two-level hash-prefix directory, written to a temp file
// and renamed into place, carrying a checksum over its payload bytes.
// Every corruption mode — truncation, bit flips, a wrong-key collision,
// a reader racing a writer — is detected and degrades to a miss (the
// cell re-executes); a store-side write error disables further stores
// (sticky, like CheckpointWriter) but never aborts the study: the
// warehouse is an accelerator, not the durability path.
package warehouse

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"hlfi/internal/core"
	"hlfi/internal/obs"
)

// recordVersion guards both the key derivation and the on-disk record
// schema: bumping it invalidates every existing entry.
const recordVersion = 2

// Store is an open warehouse directory. Safe for concurrent use; safe
// to share between unrelated studies (keys are self-describing).
type Store struct {
	dir string

	mu   sync.Mutex
	werr error // sticky first store failure: later stores are dropped

	// Optional metric hooks (nil-safe): lookup hits and misses, and
	// completed stores. Wired by the CLIs to the hlfi_warehouse_*_total
	// counters.
	Hits   *obs.Counter
	Misses *obs.Counter
	Stores *obs.Counter
}

// Open opens (creating if needed) a warehouse directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("warehouse %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the warehouse root directory.
func (s *Store) Dir() string { return s.dir }

// Err returns the sticky store-side failure, if any: the first write
// error after which the warehouse stopped persisting new records (reads
// continue). Callers surface it as a warning, never a study failure.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.werr
}

func (s *Store) disable(err error) {
	s.mu.Lock()
	if s.werr == nil {
		s.werr = err
	}
	s.mu.Unlock()
}

func (s *Store) disabled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.werr != nil
}

// objectPath maps a key hash to its record file: a two-level hash-prefix
// fan-out keeps directory sizes bounded on large stores.
func (s *Store) objectPath(kh string) string {
	return filepath.Join(s.dir, "objects", kh[:2], kh[2:4], kh+".json")
}

// envelope is the on-disk record frame: the payload's bytes, verbatim,
// plus a SHA-256 over exactly those bytes. Keeping the payload as raw
// JSON makes the checksum byte-exact (no re-marshal ambiguity).
type envelope struct {
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

// payload is one cell record. It restates the full key hash and the
// cell identity so a collision (a record filed under a key it was not
// written for — bug, tamper, or copy mistake) is detected and treated
// as a miss instead of served as an answer.
type payload struct {
	V    int    `json:"v"`
	Key  string `json:"key"`
	Type string `json:"type"` // "cell" | "skip"
	core.CellKey
	Target int `json:"target"`
	Base   int `json:"base"`

	Result               *core.CellRecord `json:"result,omitempty"` // type "cell"
	*core.CheckpointSkip                  // type "skip"
}

// read loads and fully validates one record. Any failure — missing
// file, torn or truncated JSON, checksum mismatch, version or key
// mismatch — returns ok=false: a miss, never an error.
func (s *Store) read(kh string) (*payload, bool) {
	data, err := os.ReadFile(s.objectPath(kh))
	if err != nil {
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, false
	}
	sum := sha256.Sum256(env.Payload)
	if env.Sum != hex.EncodeToString(sum[:]) {
		return nil, false
	}
	var p payload
	if err := json.Unmarshal(env.Payload, &p); err != nil {
		return nil, false
	}
	if p.V != recordVersion || p.Key != kh {
		return nil, false
	}
	return &p, true
}

// write persists one record with temp-file+rename atomicity and a fsync
// before the rename, so a concurrent reader only ever observes either
// no file or a complete record, and a crash mid-store leaves at most an
// orphaned temp file (never a torn record under the final name). The
// first failure goes sticky: the warehouse stops storing, keeps
// serving lookups, and the study proceeds unharmed.
func (s *Store) write(kh string, p *payload) {
	if s.disabled() {
		return
	}
	pb, err := json.Marshal(p)
	if err != nil {
		s.disable(err)
		return
	}
	sum := sha256.Sum256(pb)
	data, err := json.Marshal(envelope{Sum: hex.EncodeToString(sum[:]), Payload: pb})
	if err != nil {
		s.disable(err)
		return
	}
	data = append(data, '\n')
	if err := writeAtomic(s.objectPath(kh), data); err != nil {
		s.disable(err)
		return
	}
	s.Stores.Inc()
}

func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Sync the directory so the rename itself survives a crash.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// deterministicSkip reports whether a skip kind is a pure function of
// the cell's inputs and therefore cacheable. Deadline and fleet skips
// are execution accidents — a faster machine would have completed the
// cell — so they are neither stored nor served.
func deterministicSkip(kind string) bool {
	return kind == core.SkipNoCandidates || kind == core.SkipNotActivated
}

// StudyCache binds a Store to one study's shape and program set,
// implementing core.CellStore. Program content digests are computed
// once here, so per-cell key derivation on the hot path is a short
// hash over precomputed material.
type StudyCache struct {
	store *Store
	shape core.CheckpointShape
	progs map[string]string // program name -> content digest
}

// ForStudy derives the per-study key context. Only the shape's identity
// fields reach the key, so a warehouse shared by sharded, fleet, and
// single-process runs of the same study under any execution policy
// resolves to the same keys.
func (s *Store) ForStudy(shape core.CheckpointShape, programs []*core.Program) *StudyCache {
	progs := make(map[string]string, len(programs))
	for _, p := range programs {
		progs[p.Name] = programDigest(p)
	}
	return &StudyCache{store: s, shape: shape, progs: progs}
}

// Store returns the underlying warehouse store.
func (c *StudyCache) Store() *Store { return c.store }

// programDigest hashes everything about a built program that can reach
// a campaign outcome: the IR module text, the disassembled machine
// code with its entry point and constant pool, and the golden output
// the outcome classifier compares against. Length-prefixed sections
// keep the encoding unambiguous.
func programDigest(p *core.Program) string {
	h := sha256.New()
	sec := func(tag string, data []byte) {
		fmt.Fprintf(h, "%s %d\n", tag, len(data))
		h.Write(data)
	}
	fmt.Fprintf(h, "hlfi-program-v%d\n", recordVersion)
	sec("name", []byte(p.Name))
	sec("ir", []byte(p.Prep.Mod.String()))
	sec("asm", []byte(p.Asm.Disassemble()))
	fmt.Fprintf(h, "entry %d\n", p.Asm.Entry)
	sec("rodata", p.Asm.Rodata)
	sec("golden", p.GoldenOutput)
	fmt.Fprintf(h, "exit %d\n", p.GoldenExit)
	return hex.EncodeToString(h.Sum(nil))
}

// KeyHex derives the content-addressed key of one cell record at the
// given (activated-target, adaptive-base) identity. ok=false means the
// program is not part of this study (no key exists).
//
// The seed component is the cell's EFFECTIVE campaign seed,
// core.CellSeed(studySeed, key): the value the injection RNG actually
// streams from. Every entry point (ficompare, the single-cell CLIs,
// shards, fleet workers) runs a cell on that seed, so they share a
// record exactly when their samples are byte-identical.
//
// A non-paper cell variant hashes one more line. The variant salts the
// study seed, so the effective seed alone cannot separate a calibrated
// cell at study seed S from the paper cell at S+1 (same stream,
// different candidate set); paper cells omit the line, so their keys
// keep their bytes.
func (c *StudyCache) KeyHex(key core.CellKey, target, base int) (string, bool) {
	pd, ok := c.progs[key.Prog]
	if !ok {
		return "", false
	}
	cell := c.shape
	cell.Seed = core.CellSeed(c.shape.Seed, key)
	h := sha256.New()
	fmt.Fprintf(h, "hlfi-warehouse-v%d\n", recordVersion)
	fmt.Fprintf(h, "program %s\n", pd)
	fmt.Fprintf(h, "level %s\ncategory %s\n", key.Level, key.Category)
	if key.Variant != core.VariantPaper {
		fmt.Fprintf(h, "variant %d\n", int(key.Variant))
	}
	fmt.Fprintf(h, "target %d\nbase %d\n", target, base)
	for _, f := range cell.Identity() {
		fmt.Fprintf(h, "%s %s\n", f.Name, f.Value)
	}
	// Identity once ended with the attempt-seeding discipline. Every
	// record a current binary can reproduce was keyed with this line, so
	// it stays: dropping it would turn every existing store cold.
	fmt.Fprint(h, "seeding sequential\n")
	return hex.EncodeToString(h.Sum(nil)), true
}

// lookup is the shared validated read behind Lookup and Probe.
func (c *StudyCache) lookup(key core.CellKey, target, base int) (*payload, bool) {
	kh, ok := c.KeyHex(key, target, base)
	if !ok {
		return nil, false
	}
	p, ok := c.store.read(kh)
	if !ok {
		return nil, false
	}
	// The record restates its identity; a mismatch is a filed-wrong
	// record and must read as a miss, never as an answer.
	if p.CellKey != key || p.Target != target || p.Base != base {
		return nil, false
	}
	switch p.Type {
	case "cell":
		if p.Result == nil || p.Result.Validate() != nil {
			return nil, false
		}
	case "skip":
		if p.CheckpointSkip == nil || !deterministicSkip(p.Kind) {
			return nil, false
		}
	default:
		return nil, false
	}
	return p, true
}

// Lookup resolves one cell from the warehouse: a cached result, a
// cached deterministic skip, or a miss. Implements core.CellStore.
func (c *StudyCache) Lookup(key core.CellKey, target, base int) (*core.CellResult, *core.CheckpointSkip, bool) {
	p, ok := c.lookup(key, target, base)
	if !ok {
		c.store.Misses.Inc()
		return nil, nil, false
	}
	c.store.Hits.Inc()
	if p.Type == "skip" {
		return nil, p.CheckpointSkip, true
	}
	return p.Result.Result(key), nil, true
}

// CellStatus classifies one cell's warehouse state for the query
// surfaces (-warehouse-query, the coordinator's /warehouse endpoint).
const (
	StatusHit  = "hit"
	StatusSkip = "skip"
	StatusMiss = "miss"
)

// Probe reports one cell's warehouse status without touching the
// hit/miss counters (queries are observational, not resolutions).
func (c *StudyCache) Probe(key core.CellKey, target, base int) string {
	p, ok := c.lookup(key, target, base)
	if !ok {
		return StatusMiss
	}
	if p.Type == "skip" {
		return StatusSkip
	}
	return StatusHit
}

// StoreCell persists one completed cell. Implements core.CellStore
// (method name Store is taken by the accessor, so the interface method
// is StoreCell/StoreSkip).
func (c *StudyCache) StoreCell(key core.CellKey, target, base int, res *core.CellResult) {
	kh, ok := c.KeyHex(key, target, base)
	if !ok {
		return
	}
	c.store.write(kh, &payload{V: recordVersion, Key: kh, Type: "cell", CellKey: key,
		Target: target, Base: base, Result: core.RecordOf(res)})
}

// StoreSkip persists one soft-skipped cell. Only deterministic kinds
// (no-candidates, not-activated) are stored: a deadline or fleet skip
// describes this run's scheduling, not the cell.
func (c *StudyCache) StoreSkip(key core.CellKey, target, base int, skip core.CheckpointSkip) {
	if !deterministicSkip(skip.Kind) {
		return
	}
	kh, ok := c.KeyHex(key, target, base)
	if !ok {
		return
	}
	c.store.write(kh, &payload{V: recordVersion, Key: kh, Type: "skip", CellKey: key,
		Target: target, Base: base, CheckpointSkip: &skip})
}
