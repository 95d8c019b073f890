package fleet

import (
	"encoding/json"
	"testing"

	"hlfi/internal/core"
)

// TestCompleteRequestEncoding pins the wire bytes of a result and a skip
// completion: the shared cell record must encode exactly as the fleet's
// own result and skip types did, so workers and coordinators of either
// encoding interoperate.
func TestCompleteRequestEncoding(t *testing.T) {
	res := &core.CellResult{Benign: 3, SDC: 2, Crash: 1, Hang: 1, NotActivated: 4,
		Attempts: 11, SimFaults: 1, DynCandidates: 42,
		Adaptive: core.AdaptiveCell{Target: 7, Converged: true, Extended: true,
			Round1: core.AdaptiveCounts{Benign: 1, SDC: 1, NotActivated: 2, Attempts: 4, SimFaults: 1}}}
	cases := []struct {
		req  CompleteRequest
		want string
	}{
		{CompleteRequest{Worker: "w1", Lease: 3, Benchmark: "quantumm", Level: "LLFI", Category: "all",
			Result: core.RecordOf(res)},
			`{"worker":"w1","lease":3,"benchmark":"quantumm","level":"LLFI","category":"all","result":{"benign":3,"sdc":2,"crash":1,"hang":1,"notActivated":4,"attempts":11,"simFaults":1,"dynCandidates":42,"target":7,"converged":true,"round1":{"benign":1,"sdc":1,"crash":0,"hang":0,"notActivated":2,"attempts":4,"simFaults":1}}}`},
		{CompleteRequest{Worker: "w1", Lease: 4, Benchmark: "quantumm", Level: "PINFI", Category: "cast",
			Skip: &core.CheckpointSkip{Kind: core.SkipNoCandidates, Err: "no candidates"}},
			`{"worker":"w1","lease":4,"benchmark":"quantumm","level":"PINFI","category":"cast","skip":{"kind":"no-candidates","err":"no candidates"}}`},
		{CompleteRequest{Worker: "w1", Lease: 5, Benchmark: "quantumm", Level: "LLFI", Category: "all",
			Result: core.RecordOf(&core.CellResult{Benign: 8, Attempts: 8, DynCandidates: 3})},
			`{"worker":"w1","lease":5,"benchmark":"quantumm","level":"LLFI","category":"all","result":{"benign":8,"sdc":0,"crash":0,"hang":0,"notActivated":0,"attempts":8,"dynCandidates":3}}`},
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
