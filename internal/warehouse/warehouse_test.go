package warehouse

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hlfi/internal/core"
	"hlfi/internal/fault"
)

const tinySrc = `
int main() {
    int s = 0;
    for (int i = 0; i < 8; i++) s += i * i;
    print_int(s);
    print_str("\n");
    return 0;
}
`

const otherSrc = `
int main() {
    int s = 1;
    for (int i = 1; i < 6; i++) s *= i;
    print_int(s);
    print_str("\n");
    return 0;
}
`

func testCache(t *testing.T, srcs ...string) (*StudyCache, []*core.Program) {
	t.Helper()
	if len(srcs) == 0 {
		srcs = []string{tinySrc}
	}
	var progs []*core.Program
	for i, src := range srcs {
		name := "tiny.c"
		if i > 0 {
			name = "other.c"
		}
		p, err := core.BuildProgram(name, src)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	s, err := Open(filepath.Join(t.TempDir(), "wh"))
	if err != nil {
		t.Fatal(err)
	}
	shape := core.CheckpointShape{N: 10, Seed: 5, Compiled: "on", Adaptive: "off"}
	return s.ForStudy(shape, progs), progs
}

func sampleResult() *core.CellResult {
	return &core.CellResult{
		Prog: "tiny.c", Level: fault.LevelIR, Category: fault.CatAll,
		Benign: 4, SDC: 3, Crash: 2, Hang: 1,
		NotActivated: 7, Attempts: 18, SimFaults: 1, DynCandidates: 99,
	}
}

// TestRoundTrip: a stored cell (and a stored deterministic skip) read
// back exactly, and Probe classifies each without touching counters.
func TestRoundTrip(t *testing.T) {
	c, _ := testCache(t)
	key := core.CellKey{Prog: "tiny.c", Level: fault.LevelIR, Category: fault.CatAll}
	skipKey := core.CellKey{Prog: "tiny.c", Level: fault.LevelASM, Category: fault.CatLoad}

	if _, _, ok := c.Lookup(key, 10, 10); ok {
		t.Fatal("empty warehouse reported a hit")
	}

	want := sampleResult()
	c.StoreCell(key, 10, 10, want)
	c.StoreSkip(skipKey, 10, 10, core.CheckpointSkip{Kind: core.SkipNoCandidates, Err: "no candidates"})
	if err := c.Store().Err(); err != nil {
		t.Fatalf("store failed: %v", err)
	}

	res, skip, ok := c.Lookup(key, 10, 10)
	if !ok || skip != nil || res == nil {
		t.Fatalf("Lookup = (%v, %v, %v), want a result hit", res, skip, ok)
	}
	if *res != *want {
		t.Errorf("result does not round-trip:\nwant %+v\ngot  %+v", want, res)
	}
	res, skip, ok = c.Lookup(skipKey, 10, 10)
	if !ok || res != nil || skip == nil || skip.Kind != core.SkipNoCandidates || skip.Err != "no candidates" {
		t.Fatalf("skip Lookup = (%v, %+v, %v), want the cached skip", res, skip, ok)
	}

	if got := c.Probe(key, 10, 10); got != StatusHit {
		t.Errorf("Probe(cell) = %q, want %q", got, StatusHit)
	}
	if got := c.Probe(skipKey, 10, 10); got != StatusSkip {
		t.Errorf("Probe(skip) = %q, want %q", got, StatusSkip)
	}
	if got := c.Probe(core.CellKey{Prog: "tiny.c", Level: fault.LevelIR, Category: fault.CatArith}, 10, 10); got != StatusMiss {
		t.Errorf("Probe(absent) = %q, want %q", got, StatusMiss)
	}
}

// TestAdaptiveRoundTrip: the adaptive fields (target, convergence, the
// round-1 sub-record of an extended cell) survive the store.
func TestAdaptiveRoundTrip(t *testing.T) {
	c, _ := testCache(t)
	key := core.CellKey{Prog: "tiny.c", Level: fault.LevelIR, Category: fault.CatAll}
	want := sampleResult()
	want.Adaptive.Target = 14
	want.Adaptive.Converged = true
	want.Adaptive.Extended = true
	want.Adaptive.Round1 = core.AdaptiveCounts{Benign: 2, SDC: 1, Crash: 1, Hang: 0, NotActivated: 3, Attempts: 7}
	c.StoreCell(key, 14, 10, want)

	res, _, ok := c.Lookup(key, 14, 10)
	if !ok || res == nil {
		t.Fatal("extended record did not hit at its (target, base) identity")
	}
	if *res != *want {
		t.Errorf("adaptive result does not round-trip:\nwant %+v\ngot  %+v", want, res)
	}
	// The same cell at the base identity is a different record.
	if _, _, ok := c.Lookup(key, 10, 10); ok {
		t.Error("extension record leaked into the base (10, 10) identity")
	}
}

// TestKeyIdentity: every input that can change a cell's outcome changes
// the key; scheduling and execution policy (shard spec, replay and
// compiled signatures) do not.
func TestKeyIdentity(t *testing.T) {
	_, progs := testCache(t, tinySrc, otherSrc)
	s, err := Open(filepath.Join(t.TempDir(), "wh"))
	if err != nil {
		t.Fatal(err)
	}
	base := core.CheckpointShape{N: 10, Seed: 5, Compiled: "on", Adaptive: "off"}
	key := core.CellKey{Prog: "tiny.c", Level: fault.LevelIR, Category: fault.CatAll}
	kh := func(shape core.CheckpointShape, k core.CellKey, target, bn int) string {
		h, ok := s.ForStudy(shape, progs).KeyHex(k, target, bn)
		if !ok {
			t.Fatalf("no key for %v", k)
		}
		return h
	}

	ref := kh(base, key, 10, 10)
	distinct := map[string]string{
		"n":        kh(core.CheckpointShape{N: 20, Seed: 5, Compiled: "on", Adaptive: "off"}, key, 20, 20),
		"seed":     kh(core.CheckpointShape{N: 10, Seed: 6, Compiled: "on", Adaptive: "off"}, key, 10, 10),
		"adaptive": kh(core.CheckpointShape{N: 10, Seed: 5, Compiled: "on", Adaptive: "eps=0.05,min=5,check=5"}, key, 10, 10),
		"level":    kh(base, core.CellKey{Prog: "tiny.c", Level: fault.LevelASM, Category: fault.CatAll}, 10, 10),
		"category": kh(base, core.CellKey{Prog: "tiny.c", Level: fault.LevelIR, Category: fault.CatArith}, 10, 10),
		"program":  kh(base, core.CellKey{Prog: "other.c", Level: fault.LevelIR, Category: fault.CatAll}, 10, 10),
		"target":   kh(base, key, 14, 10),
		"variant":  kh(base, core.CellKey{Prog: "tiny.c", Level: fault.LevelIR, Category: fault.CatAll, Variant: core.VariantCalibrated}, 10, 10),
	}
	for what, h := range distinct {
		if h == ref {
			t.Errorf("changing %s did not change the key", what)
		}
	}

	same := map[string]core.CheckpointShape{
		"shard":    {N: 10, Seed: 5, Compiled: "on", Adaptive: "off", Shard: "1/3"},
		"compiled": {N: 10, Seed: 5, Compiled: "off", Adaptive: "off"},
		"replay":   {N: 10, Seed: 5, Compiled: "on", Adaptive: "off", Replay: "stride=4096;budget=268435456"},
	}
	for what, shape := range same {
		if kh(shape, key, 10, 10) != ref {
			t.Errorf("%s fragments the key space (scheduling or execution policy)", what)
		}
	}

	// The variant salts the study seed: a calibrated cell at study seed S
	// streams from the same effective seed as the paper cell at S+1, on
	// the same program, level and category, but over a different
	// candidate set. The variant line keeps the two apart.
	cal := core.CellKey{Prog: "tiny.c", Level: fault.LevelIR, Category: fault.CatAll, Variant: core.VariantCalibrated}
	next := core.CheckpointShape{N: 10, Seed: 6, Compiled: "on", Adaptive: "off"}
	if core.CellSeed(5, cal) != core.CellSeed(6, key) {
		t.Fatal("calibrated cell at seed 5 and paper cell at seed 6 no longer share an effective seed")
	}
	if kh(next, key, 10, 10) == distinct["variant"] {
		t.Error("a calibrated cell shares a key with the paper cell on the same effective seed (different candidate set)")
	}
}

// TestKeyPreimagePinned rebuilds the key preimage byte for byte as
// stores written before per-attempt seeding was removed hashed it, for
// one paper cell and one calibrated cell: a store filled by an older
// binary must keep serving hits. The trailing "seeding sequential" line
// is that history; every record ever written under the one remaining
// discipline hashed it.
func TestKeyPreimagePinned(t *testing.T) {
	c, progs := testCache(t)
	digest := programDigest(progs[0])
	for _, key := range []core.CellKey{
		{Prog: "tiny.c", Level: fault.LevelASM, Category: fault.CatArith},
		{Prog: "tiny.c", Level: fault.LevelIR, Category: fault.CatAll, Variant: core.VariantCalibrated},
	} {
		variant := ""
		if key.Variant != core.VariantPaper {
			variant = fmt.Sprintf("variant %d\n", int(key.Variant))
		}
		pre := fmt.Sprintf("hlfi-warehouse-v2\nprogram %s\nlevel %s\ncategory %s\n%starget 12\nbase 10\n"+
			"n 10\nseed %d\nadaptive off\nseeding sequential\n",
			digest, key.Level, key.Category, variant, core.CellSeed(5, key))
		sum := sha256.Sum256([]byte(pre))
		if got, _ := c.KeyHex(key, 12, 10); got != hex.EncodeToString(sum[:]) {
			t.Errorf("%v: key %s, want %s from the pinned preimage", key, got, hex.EncodeToString(sum[:]))
		}
	}
}

// TestNonDeterministicSkipsNotCached: deadline and fleet skips describe
// one run's scheduling, not the cell — never stored, and a record that
// somehow carries such a kind is never served.
func TestNonDeterministicSkipsNotCached(t *testing.T) {
	c, _ := testCache(t)
	key := core.CellKey{Prog: "tiny.c", Level: fault.LevelIR, Category: fault.CatAll}
	c.StoreSkip(key, 10, 10, core.CheckpointSkip{Kind: core.SkipDeadline, Err: "cell deadline exceeded"})
	c.StoreSkip(key, 10, 10, core.CheckpointSkip{Kind: core.SkipFleet, Err: "retry budget exhausted"})
	if got := c.Probe(key, 10, 10); got != StatusMiss {
		t.Errorf("non-deterministic skip was cached: Probe = %q", got)
	}
}

// TestCorruptionMatrix is the satellite-4 regression: every way a record
// can rot on disk — truncation, a flipped bit, an empty or garbage file,
// a record filed under another cell's key — must degrade to a miss (the
// cell re-executes) and never panic, error, or serve a stale answer. A
// fresh store over the corrupt path must repair it.
func TestCorruptionMatrix(t *testing.T) {
	keyA := core.CellKey{Prog: "tiny.c", Level: fault.LevelIR, Category: fault.CatAll}
	keyB := core.CellKey{Prog: "tiny.c", Level: fault.LevelASM, Category: fault.CatAll}

	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, c *StudyCache, pathA, pathB string)
	}{
		{"truncated record", func(t *testing.T, c *StudyCache, pathA, _ string) {
			data, err := os.ReadFile(pathA)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(pathA, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"zero-byte record", func(t *testing.T, c *StudyCache, pathA, _ string) {
			if err := os.WriteFile(pathA, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"bit-flipped payload", func(t *testing.T, c *StudyCache, pathA, _ string) {
			data, err := os.ReadFile(pathA)
			if err != nil {
				t.Fatal(err)
			}
			// Flip a digit inside the stored counts, past the envelope
			// framing, so the JSON stays well-formed and only the checksum
			// can catch it.
			i := strings.Index(string(data), `\"attempts\":`)
			if i < 0 {
				if i = strings.Index(string(data), `"attempts":`); i < 0 {
					t.Fatal("no attempts field to corrupt")
				}
			}
			for ; i < len(data); i++ {
				if data[i] >= '0' && data[i] <= '9' {
					data[i] = '0' + ('9'-data[i])%10
					break
				}
			}
			if err := os.WriteFile(pathA, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage JSON", func(t *testing.T, c *StudyCache, pathA, _ string) {
			if err := os.WriteFile(pathA, []byte("{not json"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"invalid counts", func(t *testing.T, c *StudyCache, _, _ string) {
			// A well-formed, checksummed record no campaign can produce.
			c.StoreCell(keyA, 10, 10, &core.CellResult{Benign: -40, Crash: 53, Attempts: 13})
		}},
		{"wrong-key collision", func(t *testing.T, c *StudyCache, pathA, pathB string) {
			// File B's (valid, checksummed) record under A's key: the
			// restated key inside the payload must reject it.
			data, err := os.ReadFile(pathB)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(pathA, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}

	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := testCache(t)
			want := sampleResult()
			c.StoreCell(keyA, 10, 10, want)
			c.StoreCell(keyB, 10, 10, sampleResult())
			khA, _ := c.KeyHex(keyA, 10, 10)
			khB, _ := c.KeyHex(keyB, 10, 10)
			pathA, pathB := c.Store().objectPath(khA), c.Store().objectPath(khB)

			tc.corrupt(t, c, pathA, pathB)

			if res, skip, ok := c.Lookup(keyA, 10, 10); ok {
				t.Fatalf("corrupt record served as an answer: (%+v, %+v)", res, skip)
			}
			if got := c.Probe(keyA, 10, 10); got != StatusMiss {
				t.Fatalf("corrupt record probes as %q, want %q", got, StatusMiss)
			}
			// The re-executed cell stores over the corpse and hits again.
			c.StoreCell(keyA, 10, 10, want)
			res, _, ok := c.Lookup(keyA, 10, 10)
			if !ok || res == nil || *res != *want {
				t.Fatalf("re-store over a corrupt record did not repair it: (%+v, %v)", res, ok)
			}
		})
	}
}

// TestConcurrentReaderDuringStore: readers racing a writer on the same
// key observe either a miss or the complete record — never a torn one
// (temp-file+rename) and never a panic.
func TestConcurrentReaderDuringStore(t *testing.T) {
	c, _ := testCache(t)
	key := core.CellKey{Prog: "tiny.c", Level: fault.LevelIR, Category: fault.CatAll}
	want := sampleResult()

	const readers = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, skip, ok := c.Lookup(key, 10, 10)
				if !ok {
					continue // miss: the writer has not renamed yet
				}
				if skip != nil || res == nil || *res != *want {
					select {
					case errs <- "reader observed a record that is neither a miss nor the stored result":
					default:
					}
					return
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		c.StoreCell(key, 10, 10, want)
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if err := c.Store().Err(); err != nil {
		t.Fatalf("store failed under concurrency: %v", err)
	}
}

// TestStickyStoreFailure: the first write failure disables further
// stores (an accelerator must not turn into a crash loop) while lookups
// keep serving what was already persisted.
func TestStickyStoreFailure(t *testing.T) {
	c, _ := testCache(t)
	keyA := core.CellKey{Prog: "tiny.c", Level: fault.LevelIR, Category: fault.CatAll}
	keyB := core.CellKey{Prog: "tiny.c", Level: fault.LevelASM, Category: fault.CatAll}
	want := sampleResult()
	c.StoreCell(keyA, 10, 10, want)

	// Replace the objects tree with a regular file: every further write
	// fails at MkdirAll with ENOTDIR, even running as root (permission
	// bits would not stop a root test).
	objects := filepath.Join(c.Store().Dir(), "objects")
	if err := os.RemoveAll(objects); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(objects, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	c.StoreCell(keyB, 10, 10, want)
	if err := c.Store().Err(); err == nil {
		t.Fatal("write onto a broken store did not go sticky")
	}
	// Sticky means silent drops, not retries: another store is a no-op.
	c.StoreCell(keyB, 10, 10, want)

	// Reads degrade to misses (the tree is gone), never errors.
	if _, _, ok := c.Lookup(keyA, 10, 10); ok {
		t.Error("lookup hit through a destroyed objects tree")
	}
}
