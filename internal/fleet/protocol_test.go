package fleet

import (
	"encoding/json"
	"testing"

	"hlfi/internal/core"
	"hlfi/internal/fault"
)

// quantumm is the cell identity the wire pins share.
func quantumm(level fault.Level, cat fault.Category, v core.Variant) core.CellKey {
	return core.CellKey{Prog: "quantumm", Level: level, Category: cat, Variant: v}
}

// TestCompleteRequestEncoding pins the wire bytes of a result and a skip
// completion: the shared cell record must encode exactly as the fleet's
// own result and skip types did, so workers and coordinators of either
// encoding interoperate. A paper cell carries no "variant" field; a
// calibration cell carries it after the category, as a checkpoint line
// does.
func TestCompleteRequestEncoding(t *testing.T) {
	res := &core.CellResult{Benign: 3, SDC: 2, Crash: 1, Hang: 1, NotActivated: 4,
		Attempts: 11, SimFaults: 1, DynCandidates: 42,
		Adaptive: core.AdaptiveCell{Target: 7, Converged: true, Extended: true,
			Round1: core.AdaptiveCounts{Benign: 1, SDC: 1, NotActivated: 2, Attempts: 4, SimFaults: 1}}}
	cases := []struct {
		req  CompleteRequest
		want string
	}{
		{CompleteRequest{Worker: "w1", Lease: 3, CellKey: quantumm(fault.LevelIR, fault.CatAll, core.VariantPaper),
			Result: core.RecordOf(res)},
			`{"worker":"w1","lease":3,"benchmark":"quantumm","level":"LLFI","category":"all","result":{"benign":3,"sdc":2,"crash":1,"hang":1,"notActivated":4,"attempts":11,"simFaults":1,"dynCandidates":42,"target":7,"converged":true,"round1":{"benign":1,"sdc":1,"crash":0,"hang":0,"notActivated":2,"attempts":4,"simFaults":1}}}`},
		{CompleteRequest{Worker: "w1", Lease: 4, CellKey: quantumm(fault.LevelASM, fault.CatCast, core.VariantPaper),
			Skip: &core.CheckpointSkip{Kind: core.SkipNoCandidates, Err: "no candidates"}},
			`{"worker":"w1","lease":4,"benchmark":"quantumm","level":"PINFI","category":"cast","skip":{"kind":"no-candidates","err":"no candidates"}}`},
		{CompleteRequest{Worker: "w1", Lease: 5, CellKey: quantumm(fault.LevelIR, fault.CatAll, core.VariantPaper),
			Result: core.RecordOf(&core.CellResult{Benign: 8, Attempts: 8, DynCandidates: 3})},
			`{"worker":"w1","lease":5,"benchmark":"quantumm","level":"LLFI","category":"all","result":{"benign":8,"sdc":0,"crash":0,"hang":0,"notActivated":0,"attempts":8,"dynCandidates":3}}`},
		{CompleteRequest{Worker: "w1", Lease: 6, CellKey: quantumm(fault.LevelIR, fault.CatLoad, core.VariantCalibrated),
			Result: core.RecordOf(&core.CellResult{Benign: 8, Attempts: 8, DynCandidates: 3})},
			`{"worker":"w1","lease":6,"benchmark":"quantumm","level":"LLFI","category":"load","variant":1,"result":{"benign":8,"sdc":0,"crash":0,"hang":0,"notActivated":0,"attempts":8,"dynCandidates":3}}`},
	}
	for _, tc := range cases {
		got, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("encoding changed:\ngot  %s\nwant %s", got, tc.want)
		}
		var back CompleteRequest
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if again, _ := json.Marshal(back); string(again) != tc.want {
			t.Errorf("decode/encode round trip changed the bytes:\ngot  %s\nwant %s", again, tc.want)
		}
	}
}

// TestLeaseEncoding pins the wire bytes of a lease the way
// TestCompleteRequestEncoding pins completions: a paper cell's lease
// keeps the bytes it had before leases embedded core.CellKey, and a
// calibration cell's lease adds "variant" after the category.
func TestLeaseEncoding(t *testing.T) {
	cases := []struct {
		lease Lease
		want  string
	}{
		{Lease{ID: 7, CellKey: quantumm(fault.LevelASM, fault.CatCmp, core.VariantPaper), N: 40, Seed: 12345,
			TTLMS: 30000, Grant: 1},
			`{"id":7,"benchmark":"quantumm","level":"PINFI","category":"cmp","n":40,"seed":12345,"ttlMs":30000,"grant":1}`},
		{Lease{ID: 8, CellKey: quantumm(fault.LevelIR, fault.CatAll, core.VariantPaper), N: 60, Seed: 9,
			SimFaultLimit: 3, CellDeadlineMS: 5000, Adaptive: "eps=0.1,min=16,check=8", AdaptiveBase: 40,
			TTLMS: 1000, Grant: 2, Trace: 11, Span: 12},
			`{"id":8,"benchmark":"quantumm","level":"LLFI","category":"all","n":60,"seed":9,"simFaultLimit":3,"cellDeadlineMs":5000,"adaptive":"eps=0.1,min=16,check=8","adaptiveBase":40,"ttlMs":1000,"grant":2,"trace":11,"span":12}`},
		{Lease{ID: 9, CellKey: quantumm(fault.LevelASM, fault.CatArith, core.VariantResampled), N: 40, Seed: 3,
			TTLMS: 30000, Grant: 1},
			`{"id":9,"benchmark":"quantumm","level":"PINFI","category":"arithmetic","variant":2,"n":40,"seed":3,"ttlMs":30000,"grant":1}`},
	}
	for _, tc := range cases {
		got, err := json.Marshal(tc.lease)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("encoding changed:\ngot  %s\nwant %s", got, tc.want)
		}
		var back Lease
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if back != tc.lease {
			t.Errorf("decode changed the lease:\ngot  %#v\nwant %#v", back, tc.lease)
		}
	}
}
