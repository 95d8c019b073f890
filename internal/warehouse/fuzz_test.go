package warehouse

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"hlfi/internal/core"
	"hlfi/internal/fault"
)

// FuzzWarehouseRecord throws arbitrary object bytes at the records filed
// under a paper cell's key and a calibrated cell's key. Reading them must
// never panic and must be either a miss or a fully validated payload: a
// checksummed envelope of this version, filed under its own key,
// restating that cell's identity, and carrying a result or a
// deterministic skip.
func FuzzWarehouseRecord(f *testing.F) {
	p, err := core.BuildProgram("tiny.c", tinySrc)
	if err != nil {
		f.Fatal(err)
	}
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	c := s.ForStudy(core.CheckpointShape{N: 10, Seed: 5}, []*core.Program{p})
	key := core.CellKey{Prog: "tiny.c", Level: fault.LevelIR, Category: fault.CatAll}
	cal := key
	cal.Variant = core.VariantCalibrated
	kh, _ := c.KeyHex(key, 10, 10)
	path := s.objectPath(kh)

	res := sampleResult()
	res.Adaptive = core.AdaptiveCell{Target: 10, Converged: true, Extended: true,
		Round1: core.AdaptiveCounts{Benign: 2, SDC: 1, NotActivated: 1, Attempts: 4}}
	c.StoreCell(key, 10, 10, res)
	cell, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	c.StoreSkip(key, 10, 10, core.CheckpointSkip{Kind: core.SkipNoCandidates, Err: "no candidates"})
	skip, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cell)
	f.Add(skip)
	f.Add(cell[:len(cell)/2])
	f.Add([]byte(`{"sum":"","payload":{}}`))
	f.Add([]byte("garbage"))
	// Variant identities: a valid calibrated IR record (a hit for cal
	// only), and checksummed records naming a calibrated PINFI cell and
	// an unknown level, which no lookup may serve.
	c.StoreCell(cal, 10, 10, res)
	calKh, _ := c.KeyHex(cal, 10, 10)
	calCell, err := os.ReadFile(s.objectPath(calKh))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(calCell)
	for _, id := range []string{
		`"benchmark":"tiny.c","level":"PINFI","category":"all","variant":1`,
		`"benchmark":"tiny.c","level":"MIPS","category":"all"`,
	} {
		payload := []byte(`{"v":` + strconv.Itoa(recordVersion) + `,"key":"` + kh + `","type":"cell",` + id +
			`,"target":10,"base":10,"result":{"benign":3,"sdc":0,"crash":0,"hang":0,"notActivated":0,"attempts":3,"dynCandidates":5}}`)
		sum := sha256.Sum256(payload)
		f.Add([]byte(`{"sum":"` + hex.EncodeToString(sum[:]) + `","payload":` + string(payload) + `}`))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, key := range []core.CellKey{key, cal} {
			checkRecord(t, c, key, data)
		}
	})
}

// checkRecord files data under key's record and requires its lookup to
// be a miss or a hit on a fully validated payload for key.
func checkRecord(t *testing.T, c *StudyCache, key core.CellKey, data []byte) {
	kh, _ := c.KeyHex(key, 10, 10)
	if err := writeAtomic(c.store.objectPath(kh), data); err != nil {
		t.Fatal(err)
	}
	res, skip, ok := c.Lookup(key, 10, 10)
	if !ok {
		if res != nil || skip != nil {
			t.Fatalf("miss returned a record: %+v %+v", res, skip)
		}
		return
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("hit on bytes that are not an envelope: %v", err)
	}
	if sum := sha256.Sum256(env.Payload); env.Sum != hex.EncodeToString(sum[:]) {
		t.Fatal("hit on a payload whose checksum does not match")
	}
	var pl payload
	if err := json.Unmarshal(env.Payload, &pl); err != nil {
		t.Fatalf("hit on a payload that does not decode: %v", err)
	}
	if pl.V != recordVersion || pl.Key != kh || pl.CellKey != key || pl.Target != 10 || pl.Base != 10 {
		t.Fatalf("hit on a payload filed for another identity: %s", env.Payload)
	}
	switch {
	case res != nil && skip == nil:
		if pl.Type != "cell" || res.Prog != key.Prog || res.Level != key.Level || res.Category != key.Category {
			t.Fatalf("result hit %+v from payload %s", res, env.Payload)
		}
	case skip != nil && res == nil:
		if pl.Type != "skip" || !deterministicSkip(skip.Kind) {
			t.Fatalf("skip hit %+v from payload %s", skip, env.Payload)
		}
	default:
		t.Fatalf("hit returned result %+v and skip %+v", res, skip)
	}
}
