// Shard-and-merge campaign execution. A study's canonical cell list is
// deterministic (programs in build order x levels x categories), and
// every cell derives its seed independently via cellSeed, so the study
// partitions cleanly: shard i of N owns the canonical cells with
// index%N == i and can run in its own process, writing a shard-tagged
// checkpoint. MergeShardCheckpoints validates the shard headers for
// mutual consistency and completeness and reassembles one
// CheckpointState; resuming a study from it re-runs nothing and renders
// a report byte-identical to the single-process run.
package core

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"hlfi/internal/fault"
)

// ShardSpec selects the deterministic subset of canonical study cells
// owned by one worker: cells whose canonical index i satisfies
// i%Count == Index.
type ShardSpec struct {
	Index int
	Count int
}

// ParseShardSpec parses the "i/N" flag form (e.g. "0/3").
func ParseShardSpec(s string) (ShardSpec, error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return ShardSpec{}, fmt.Errorf("shard spec %q: want \"index/count\" (e.g. 0/3)", s)
	}
	idx, err := strconv.Atoi(s[:i])
	if err != nil {
		return ShardSpec{}, fmt.Errorf("shard spec %q: bad index: %v", s, err)
	}
	count, err := strconv.Atoi(s[i+1:])
	if err != nil {
		return ShardSpec{}, fmt.Errorf("shard spec %q: bad count: %v", s, err)
	}
	spec := ShardSpec{Index: idx, Count: count}
	if err := spec.Validate(); err != nil {
		return ShardSpec{}, err
	}
	return spec, nil
}

// Validate checks 0 <= Index < Count.
func (s ShardSpec) Validate() error {
	if s.Count < 1 {
		return fmt.Errorf("shard spec %s: count must be >= 1", s)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("shard spec %s: index out of range [0,%d)", s, s.Count)
	}
	return nil
}

// Owns reports whether the shard owns canonical cell index i.
func (s ShardSpec) Owns(i int) bool { return i%s.Count == s.Index }

func (s ShardSpec) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// CanonicalCells returns the paper study's cell keys in canonical
// order: programs in the given order x levels (IR, ASM) x categories.
// It is the order RunStudy schedules and releases them, and the order
// shard ownership is computed over. cats defaults to all five
// categories.
func CanonicalCells(programs []*Program, cats []fault.Category) []CellKey {
	if len(cats) == 0 {
		cats = fault.Categories
	}
	var keys []CellKey
	for _, p := range programs {
		for _, level := range fault.Levels {
			for _, cat := range cats {
				keys = append(keys, CellKey{Prog: p.Name, Level: level, Category: cat})
			}
		}
	}
	return keys
}

// HeaderMismatchError reports a checkpoint whose header disagrees on an
// identity field (CheckpointShape.Identity) or the shard count: with a
// shard merge's reference file, or, when Reference is empty, with the
// study a -resume asks for. Field "seeding" is the loader's refusal of
// a header written under the removed per-attempt discipline, for
// -resume and -merge alike.
type HeaderMismatchError struct {
	File      string // the offending checkpoint
	Reference string // the file whose header set the expectation ("" = this run)
	Field     string // "n" | "seed" | "adaptive" | "seeding" | "shard-count"
	Want, Got string
	about     string // IdentityField.About of an identity mismatch
}

func (e *HeaderMismatchError) Error() string {
	if e.Field == "seeding" {
		return fmt.Sprintf("checkpoint %s was written with seeding = %s by the removed -cell-workers flag; every study now draws the %s stream, so its cells are a different sample and can be neither resumed nor merged (start a fresh checkpoint)",
			e.File, e.Got, e.Want)
	}
	if e.Reference == "" {
		return fmt.Sprintf("checkpoint %s was written with %s = %s; refusing to resume a study with %s = %s (%s changes results: match the original flag, or start a fresh checkpoint)",
			e.File, e.Field, e.Got, e.Field, e.Want, e.about)
	}
	return fmt.Sprintf("shard checkpoint %s: header %s = %s, but %s was written with %s = %s; these files are not shards of one study",
		e.File, e.Field, e.Got, e.Reference, e.Field, e.Want)
}

// DuplicateShardError reports two checkpoints claiming the same shard
// index — either two distinct files that both carry it, or one physical
// file reaching the merge twice (overlapping glob patterns, a symlink,
// or a hard link), flagged by SameFile. The same-file case is reported
// rather than silently deduplicated: a merge list that aliases one file
// usually means the operator's pattern set is not covering the shard
// space they think it is.
type DuplicateShardError struct {
	File     string
	Prior    string
	Index    int
	SameFile bool
}

func (e *DuplicateShardError) Error() string {
	if e.SameFile {
		return fmt.Sprintf("merge path %s is the same file as %s (overlapping patterns, a symlink, or a hard link supply shard index %d twice); fix the -merge pattern set so each shard checkpoint is named once",
			e.File, e.Prior, e.Index)
	}
	return fmt.Sprintf("shard checkpoint %s claims shard index %d, already supplied by %s",
		e.File, e.Index, e.Prior)
}

// MissingShardsError reports a merge whose file set covers only part of
// the shard space. Missing enumerates exactly the absent shard indices,
// in ascending order, so a supervisor (or operator) can restart only
// those workers.
type MissingShardsError struct {
	Count   int
	Missing []int
}

func (e *MissingShardsError) Error() string {
	idx := make([]string, len(e.Missing))
	for i, m := range e.Missing {
		idx[i] = strconv.Itoa(m)
	}
	return fmt.Sprintf("merge of %d-shard study is missing shard(s) %s; re-run those workers (with -resume on their checkpoints) and merge again",
		e.Count, strings.Join(idx, ", "))
}

// IncompleteShard describes one shard whose checkpoint is present but
// does not account for every cell the shard owns (its worker died
// mid-run).
type IncompleteShard struct {
	Index   int
	File    string
	Missing []CellKey
}

// IncompleteShardsError reports shards with partial checkpoints after a
// merge's completeness check.
type IncompleteShardsError struct {
	Shards []IncompleteShard
}

func (e *IncompleteShardsError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d shard checkpoint(s) incomplete:", len(e.Shards))
	for _, s := range e.Shards {
		fmt.Fprintf(&sb, " shard %d (%s) missing %d cell(s);", s.Index, s.File, len(s.Missing))
	}
	sb.WriteString(" resume those shard workers (-shard i/N -resume <file>) and merge again")
	return sb.String()
}

// MergedShards is the validated union of one study's shard checkpoints.
type MergedShards struct {
	// Shape is the shared study shape (Shard cleared: the union is the
	// whole study). Its Replay and Compiled are the reference file's
	// provenance; shards may differ there.
	Shape CheckpointShape
	// Count is the shard count all headers agreed on.
	Count int
	// Files maps shard index to the checkpoint that supplied it.
	Files []string
	// State is the combined resume state covering every shard's cells
	// and skips.
	State *CheckpointState
}

// MergeShardCheckpoints loads the given shard checkpoints, validates
// their headers for mutual consistency (same identity and shard count;
// distinct shard indices; every index present), and
// reassembles one CheckpointState. Cells need no reordering here: the
// resume scheduler restores them into canonical study order, so the
// merged report is byte-identical to the single-process run.
//
// Errors are typed: *HeaderMismatchError names the offending file and
// field, *DuplicateShardError a doubly-supplied index, and
// *MissingShardsError enumerates exactly the absent shard indices.
func MergeShardCheckpoints(paths []string) (*MergedShards, error) {
	if len(paths) == 0 {
		return nil, errors.New("merge: no shard checkpoints given")
	}
	paths = append([]string(nil), paths...)
	sort.Strings(paths)

	merged := &MergedShards{State: &CheckpointState{
		Cells: make(map[CellKey]*CellResult),
		Skips: make(map[CellKey]CheckpointSkip),
	}}
	// Same-file detection by inode identity, not path string: two merge
	// patterns can reach one checkpoint under different names (symlink,
	// hard link, ./-prefixed duplicate), which would otherwise read as
	// a doubly-claimed shard index with a confusing pair of "different"
	// paths — or worse, as two well-formed shards of a study that is in
	// fact missing one.
	type mergeSource struct {
		info  os.FileInfo
		path  string
		index int
	}
	var sources []mergeSource
	reference := ""
	for _, path := range paths {
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		for _, src := range sources {
			if os.SameFile(src.info, fi) {
				return nil, &DuplicateShardError{File: path, Prior: src.path, Index: src.index, SameFile: true}
			}
		}
		st, hdr, err := readCheckpoint(path)
		if err != nil {
			return nil, err
		}
		spec, err := ParseShardSpec(hdr.Shard)
		if err != nil {
			if hdr.Shard == "" {
				return nil, fmt.Errorf("checkpoint %s carries no shard header; only shard-tagged checkpoints (-shard i/N) can be merged", path)
			}
			return nil, fmt.Errorf("checkpoint %s: %v", path, err)
		}
		if reference == "" {
			reference = path
			merged.Count = spec.Count
			merged.Shape = hdr
			merged.Shape.Shard = ""
			merged.Files = make([]string, spec.Count)
		}
		if err := checkHeader(path, reference, hdr, spec, merged); err != nil {
			return nil, err
		}
		if prior := merged.Files[spec.Index]; prior != "" {
			return nil, &DuplicateShardError{File: path, Prior: prior, Index: spec.Index}
		}
		merged.Files[spec.Index] = path
		sources = append(sources, mergeSource{info: fi, path: path, index: spec.Index})
		for key, res := range st.Cells {
			merged.State.Cells[key] = res
		}
		for key, skip := range st.Skips {
			merged.State.Skips[key] = skip
		}
	}
	var missing []int
	for i, f := range merged.Files {
		if f == "" {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		return nil, &MissingShardsError{Count: merged.Count, Missing: missing}
	}
	merged.State.N, merged.State.Seed = merged.Shape.N, merged.Shape.Seed
	return merged, nil
}

// checkHeader validates one shard header against the merge reference.
func checkHeader(path, reference string, hdr CheckpointShape, spec ShardSpec, merged *MergedShards) error {
	if err := merged.Shape.CheckIdentity(hdr, path, reference); err != nil {
		return err
	}
	if spec.Count != merged.Count {
		return &HeaderMismatchError{File: path, Reference: reference, Field: "shard-count",
			Want: strconv.Itoa(merged.Count), Got: strconv.Itoa(spec.Count)}
	}
	return nil
}

// VerifyComplete checks that every canonical cell is accounted for (as
// a completed cell or a recorded soft skip) by the shard that owns it.
// cells must be the canonical cell list of the same study the shards
// ran (StudyConfig.Cells, or CanonicalCells for a paper study). A worker
// killed mid-run leaves a valid but partial checkpoint; the returned
// *IncompleteShardsError names each such shard, its file, and the exact
// cells still owed, so -resume can restart only those workers.
func (m *MergedShards) VerifyComplete(cells []CellKey) error {
	byShard := make(map[int][]CellKey)
	for i, key := range cells {
		if m.State.Cells[key] == nil {
			if _, skipped := m.State.Skips[key]; !skipped {
				owner := i % m.Count
				byShard[owner] = append(byShard[owner], key)
			}
		}
	}
	if len(byShard) == 0 {
		return nil
	}
	err := &IncompleteShardsError{}
	for i := 0; i < m.Count; i++ {
		if missing := byShard[i]; len(missing) > 0 {
			err.Shards = append(err.Shards, IncompleteShard{Index: i, File: m.Files[i], Missing: missing})
		}
	}
	return err
}
