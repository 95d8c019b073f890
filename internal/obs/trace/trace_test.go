package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSpanLifecycle(t *testing.T) {
	r, err := New(Options{TraceID: 7, Capacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	root := r.Start(KindCampaign, "study")
	cell := r.StartChild(KindCell, "quantumm/llfi/instr", root)
	cell.Outcome = "done"
	cell.Grant = 2
	cell.Finish()
	root.Outcome = "done"
	root.Finish()

	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot = %d records, want 2", len(snap))
	}
	c, rt := snap[0], snap[1]
	if c.Kind != KindCell || rt.Kind != KindCampaign {
		t.Fatalf("finish order: got kinds %q, %q", c.Kind, rt.Kind)
	}
	if c.Trace != 7 || rt.Trace != 7 {
		t.Fatalf("trace ids = %d, %d, want 7", c.Trace, rt.Trace)
	}
	if c.Parent != rt.ID {
		t.Fatalf("cell parent = %d, want root id %d", c.Parent, rt.ID)
	}
	if c.Outcome != "done" || c.Grant != 2 {
		t.Fatalf("annotations lost: %+v", c)
	}
	if c.End < c.Start {
		t.Fatalf("end %d before start %d", c.End, c.Start)
	}
	// Double-finish is a no-op.
	cell.Finish()
	if got := len(r.Snapshot()); got != 2 {
		t.Fatalf("after double finish: %d records, want 2", got)
	}
}

func TestRingBound(t *testing.T) {
	r, err := New(Options{Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s := r.Start(KindRun, "cell")
		s.Grant = i
		s.Finish()
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("ring holds %d, want 4", len(snap))
	}
	if snap[0].Grant != 6 || snap[3].Grant != 9 {
		t.Fatalf("ring kept grants %d..%d, want 6..9", snap[0].Grant, snap[3].Grant)
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
}

func TestWorkerIDNamespace(t *testing.T) {
	w, err := New(Options{Worker: "w1"})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ws := w.Start(KindExec, "cell")
	cs := c.Start(KindLease, "cell")
	if ws.ID()&(1<<63) == 0 {
		t.Fatalf("worker span id %x missing namespace bit 63", ws.ID())
	}
	if cs.ID()&(1<<63) != 0 {
		t.Fatalf("coordinator span id %x has worker namespace bit", cs.ID())
	}
	if ws.ID() == cs.ID() {
		t.Fatal("worker and coordinator allocated the same span id")
	}
}

func TestWorkerOutbox(t *testing.T) {
	w, err := New(Options{Worker: "w1", TraceID: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := w.StartRemote(KindExec, "cell", 9, 42)
	s.Worker = "w1"
	s.Finish()
	batch := w.TakeBatch()
	if len(batch) != 1 {
		t.Fatalf("batch = %d records, want 1", len(batch))
	}
	if batch[0].Trace != 9 || batch[0].Parent != 42 {
		t.Fatalf("remote context lost: trace=%d parent=%d", batch[0].Trace, batch[0].Parent)
	}
	if got := w.TakeBatch(); len(got) != 0 {
		t.Fatalf("second TakeBatch = %d records, want 0", len(got))
	}

	// Coordinator ingests the batch verbatim.
	c, err := New(Options{TraceID: 9})
	if err != nil {
		t.Fatal(err)
	}
	c.Ingest(batch)
	snap := c.Snapshot()
	if len(snap) != 1 || snap[0].ID != batch[0].ID {
		t.Fatalf("ingest mangled the batch: %+v", snap)
	}
}

func TestNilRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		s := r.Start(KindExec, "cell")
		s.Outcome = "done"
		s.Worker = "w"
		s.Finish()
		r.Emit(Record{Kind: KindScan})
		r.Ingest(nil)
		_ = r.TakeBatch()
		_ = r.TraceID()
	})
	if allocs != 0 {
		t.Fatalf("nil recorder path allocates %.1f per op, want 0", allocs)
	}
}

func TestFlightRecorderFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	r, err := New(Options{File: path, TraceID: 5,
		Head: Header{Go: "go1.22", Engine: "eng", N: 8, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Start(KindCampaign, "study")
	s.Outcome = "done"
	s.Finish()
	if !r.FileIntact() {
		t.Fatal("flight recorder detached without a failure")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	hdr, recs, err := ReadFlightRecorder(raw)
	if err != nil {
		t.Fatal(err)
	}
	if hdr != (Header{Go: "go1.22", Engine: "eng", N: 8, Seed: 1}) {
		t.Fatalf("header = %+v", hdr)
	}
	if len(recs) != 1 || recs[0].Kind != KindCampaign || recs[0].Outcome != "done" || recs[0].Trace != 5 {
		t.Fatalf("span records = %+v", recs)
	}
}

// FuzzFlightRecorder throws arbitrary bytes at the flight-recorder
// reader. It must never panic, and must return either a typed
// *FlightRecorderError or only finished spans under a valid header.
func FuzzFlightRecorder(f *testing.F) {
	path := filepath.Join(f.TempDir(), "flight.jsonl")
	r, err := New(Options{File: path, TraceID: 5, Head: Header{Go: "go1.22", N: 8, Seed: 1}})
	if err != nil {
		f.Fatal(err)
	}
	s := r.Start(KindCampaign, "study")
	c := r.StartChild(KindCell, "bzip2m/LLFI/all", s)
	c.Finish()
	s.Finish()
	if err := r.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)-7])
	f.Add([]byte(`{"type":"flight-recorder","v":1}` + "\n" + `{"id":3,"kind":"cell","startNs":9,"endNs":2}` + "\n"))
	f.Add([]byte("garbage\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, recs, err := ReadFlightRecorder(data)
		if err != nil {
			var fre *FlightRecorderError
			if !errors.As(err, &fre) || recs != nil {
				t.Fatalf("untyped error %v (records %v)", err, recs)
			}
			return
		}
		for _, rec := range recs {
			if rec.ID == 0 || rec.Kind == "" || rec.End < rec.Start {
				t.Fatalf("reader returned an unfinished span %+v", rec)
			}
		}
	})
}

func TestFlightRecorderFailStop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.jsonl")
	r, err := New(Options{File: path})
	if err != nil {
		t.Fatal(err)
	}
	// Force the next append to fail by closing the fd out from under the
	// recorder, the same trick the checkpoint-writer tests use.
	r.file.Close()
	s := r.Start(KindCell, "cell")
	s.Finish()
	if r.FileIntact() {
		t.Fatal("write onto closed file did not detach the recorder")
	}
	// The in-memory timeline keeps working after detach.
	s2 := r.Start(KindCell, "cell2")
	s2.Finish()
	if got := len(r.Snapshot()); got != 2 {
		t.Fatalf("timeline after detach = %d records, want 2", got)
	}
	if err := r.Close(); err == nil {
		t.Fatal("Close did not surface the sticky write error")
	}
}

func sampleRecorder(t *testing.T) *Recorder {
	t.Helper()
	r, err := New(Options{TraceID: 11, Head: Header{Go: "go1.22", Engine: "eng"}})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().UnixNano()
	r.Emit(Record{Kind: KindCampaign, Name: "study", Start: base, End: base + 5e6, Outcome: "done"})
	r.Emit(Record{Kind: KindCell, Name: "quantumm/llfi/instr", Start: base, End: base + 4e6, Outcome: "done"})
	r.Emit(Record{Kind: KindLease, Name: "quantumm/llfi/instr", Worker: "w1", Grant: 1,
		Start: base, End: base + 1e6, Outcome: "lease expiry", Err: "ttl"})
	r.Emit(Record{Kind: KindRetry, Name: "quantumm/llfi/instr", Retry: 1,
		Start: base + 1e6, End: base + 2e6})
	r.Emit(Record{Kind: KindExec, Name: "quantumm/llfi/instr", Worker: "w2", Grant: 2,
		Start: base + 2e6, End: base + 4e6, Outcome: "done"})
	return r
}

func TestWriteChrome(t *testing.T) {
	r := sampleRecorder(t)
	var buf bytes.Buffer
	if err := r.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("chrome export not JSON: %v", err)
	}
	var xs, ms, retries int
	workers := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		switch ev["ph"] {
		case "X":
			xs++
			if ev["cat"] == KindRetry {
				retries++
			}
			if args, ok := ev["args"].(map[string]any); ok {
				if w, ok := args["worker"].(string); ok {
					workers[w] = true
				}
			}
		case "M":
			ms++
		}
	}
	if xs != 5 {
		t.Fatalf("chrome export has %d X events, want 5", xs)
	}
	if ms < 3 { // process_name + campaign lane + cell lane
		t.Fatalf("chrome export has %d M events, want >= 3", ms)
	}
	if retries != 1 {
		t.Fatalf("chrome export has %d retry slices, want 1", retries)
	}
	if !workers["w1"] || !workers["w2"] {
		t.Fatalf("worker attribution lost: %v", workers)
	}
}

func TestWriteJSON(t *testing.T) {
	r := sampleRecorder(t)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out export
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("json export not JSON: %v", err)
	}
	if out.Trace != 11 || len(out.Spans) != 5 || out.Header.Engine != "eng" {
		t.Fatalf("json export = trace %d, %d spans, engine %q",
			out.Trace, len(out.Spans), out.Header.Engine)
	}
}

func TestHandlerFormats(t *testing.T) {
	h := Handler(sampleRecorder(t))

	for _, tc := range []struct{ url, contentType, needle string }{
		{"/tracez", "text/html", "hlfi campaign trace"},
		{"/tracez?format=json", "application/json", "\"spans\""},
		{"/tracez?format=chrome", "application/json", "traceEvents"},
	} {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("GET", tc.url, nil))
		if rw.Code != 200 {
			t.Fatalf("%s: status %d", tc.url, rw.Code)
		}
		if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, tc.contentType) {
			t.Fatalf("%s: content type %q, want %q", tc.url, ct, tc.contentType)
		}
		if !strings.Contains(rw.Body.String(), tc.needle) {
			t.Fatalf("%s: body missing %q", tc.url, tc.needle)
		}
	}

	// Nil recorder: 404, never a 500.
	rw := httptest.NewRecorder()
	Handler(nil).ServeHTTP(rw, httptest.NewRequest("GET", "/tracez", nil))
	if rw.Code != 404 {
		t.Fatalf("nil recorder handler: status %d, want 404", rw.Code)
	}
}
