package fleet

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"hlfi/internal/core"
	"hlfi/internal/fault"
)

// FuzzFleetMessages throws arbitrary request bodies at the coordinator's
// lease, heartbeat and complete handlers (the first input byte picks the
// endpoint). No handler may panic; each answers 400 or 200 with a
// well-formed response, a completion is accepted only for a cell of the
// study (never for another variant of one), and every record the study
// commits to its checkpoint loads back through the typed validation.
func FuzzFleetMessages(f *testing.F) {
	p, err := core.BuildProgram("tiny.c", `
int main() {
    int s = 0;
    for (int i = 0; i < 8; i++) s += i * i;
    print_int(s);
    return 0;
}
`)
	if err != nil {
		f.Fatal(err)
	}
	progs := []*core.Program{p}
	ckpt := filepath.Join(f.TempDir(), "fuzz.jsonl")
	shape := core.CheckpointShape{N: 4, Seed: 1}
	w, err := core.NewCheckpointWriterShape(ckpt, shape)
	if err != nil {
		f.Fatal(err)
	}
	defer w.Close()
	c, err := New(Config{Programs: progs, N: 4, Seed: 1, Checkpoint: w,
		Cells: core.CanonicalCells(progs, []fault.Category{fault.CatAll}), Metrics: NewMetrics()})
	if err != nil {
		f.Fatal(err)
	}
	defer c.Stop()
	h := c.Handler()
	paths := []string{"/lease", "/heartbeat", "/complete"}

	ir, asm := `"benchmark":"tiny.c","level":"LLFI","category":"all"`, `"benchmark":"tiny.c","level":"PINFI","category":"all"`
	for _, seed := range []string{
		"\x00" + `{"worker":"w1"}`,
		"\x01" + `{"worker":"w1","lease":1,"spans":[{"trace":1,"id":2,"kind":"exec","name":"x","startNs":1,"endNs":2}],"metrics":{"cells":1,"attempts":4}}`,
		"\x02" + `{"worker":"w1","lease":1,` + ir + `,"result":{"benign":3,"sdc":1,"crash":0,"hang":0,"notActivated":1,"attempts":5,"dynCandidates":9}}`,
		"\x02" + `{"worker":"w1","lease":1,` + ir + `,"result":{"benign":-40,"sdc":0,"crash":53,"hang":0,"notActivated":0,"attempts":13,"dynCandidates":9}}`,
		"\x02" + `{"worker":"w1","lease":2,` + asm + `,"skip":{"kind":"no-candidates","err":"x"}}`,
		"\x02" + `{"worker":"w1","lease":2,` + asm + `,"failure":"boom"}`,
		"\x02" + `{"worker":"w1","lease":1,` + ir + `,"variant":1,"result":{"benign":3,"sdc":1,"crash":0,"hang":0,"notActivated":1,"attempts":5,"dynCandidates":9}}`,
		"\x02" + `{"worker":"w1","lease":2,` + asm + `,"variant":1,"skip":{"kind":"no-candidates","err":"x"}}`,
		"\x02" + `{"worker":"w1","lease":1,"benchmark":"tiny.c","level":"MIPS","category":"all","result":{"benign":1,"sdc":0,"crash":0,"hang":0,"notActivated":0,"attempts":1,"dynCandidates":1}}`,
		"\x01not json",
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		path := paths[int(data[0])%len(paths)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data[1:])))
		switch rec.Code {
		case http.StatusBadRequest:
		case http.StatusOK:
			var req CompleteRequest
			if path == "/complete" && json.NewDecoder(bytes.NewReader(data[1:])).Decode(&req) == nil {
				if _, ok := c.byKey[req.CellKey]; !ok {
					t.Fatalf("/complete accepted cell %v, which is not part of the study", req.CellKey)
				}
			}
			var lr LeaseResponse
			var resp any = &lr
			switch path {
			case "/heartbeat":
				resp = &HeartbeatResponse{}
			case "/complete":
				resp = &CompleteResponse{}
			}
			if err := json.Unmarshal(rec.Body.Bytes(), resp); err != nil {
				t.Fatalf("%s answered 200 with %q: %v", path, rec.Body.String(), err)
			}
			if path == "/lease" && (lr.Status != StatusLease && lr.Status != StatusWait && lr.Status != StatusDone ||
				(lr.Status == StatusLease) != (lr.Lease != nil)) {
				t.Fatalf("lease response %+v", lr)
			}
		default:
			t.Fatalf("%s answered %d: %s", path, rec.Code, rec.Body.String())
		}
		// A completion is committed before it is answered, and the loader
		// refuses an invalid record.
		if _, err := core.LoadCheckpointShape(ckpt, shape); err != nil {
			t.Fatalf("coordinator committed an invalid record: %v", err)
		}
	})
}
