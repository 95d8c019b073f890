// Package trace is the campaign distributed-tracing layer: a
// dependency-free span model covering the whole life of a study —
// campaign → cell → queue wait / lease / attempt-window → retry and
// adaptive-extension spans — with worker identity and outcome
// annotations on every span.
//
// The model is built for the fleet: span context (trace ID, parent span
// ID) rides inside lease grants, workers record their execution spans
// locally and piggyback the finished batch on heartbeats and
// completions, and the coordinator ingests them into one bounded
// in-memory timeline plus an optional append-only JSONL flight-recorder
// file that reuses the fail-stop checkpoint-writer discipline (header
// line first, fsync per append, sticky first write error, in-memory
// timeline survives a detached file).
//
// Like the rest of internal/obs, the disabled path is zero-cost: every
// method is safe on a nil *Recorder, Span is a value type whose nil-
// recorder operations allocate nothing, and spans consume no randomness
// — campaign results, checkpoints, and rendered reports are
// byte-identical with tracing on or off.
package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sync"
	"time"
)

// Span kinds, from the outermost study span down to the per-cell
// lifecycle spans the timeline is made of.
const (
	// KindCampaign is the root span of one study.
	KindCampaign = "campaign"
	// KindCell covers one cell from first grant (or task start) to its
	// resolution.
	KindCell = "cell"
	// KindWait covers the queue time before a cell's first grant (and,
	// after an adaptive reopen, before its extension grant).
	KindWait = "wait"
	// KindLease covers one coordinator-side lease: grant to completion,
	// expiry, or failure.
	KindLease = "lease"
	// KindExec is the worker-side attempt window of one leased cell.
	KindExec = "exec"
	// KindBuild is a worker-side program build (benchmark cache miss).
	KindBuild = "build"
	// KindScan covers injector construction: the candidate scan plus
	// replay/compiled arming.
	KindScan = "scan"
	// KindRun covers the injection loop of one cell.
	KindRun = "run"
	// KindRetry covers the backoff gap between a failed or expired lease
	// and the next grant.
	KindRetry = "retry"
	// KindExtension covers an adaptive round-2 extension: plan reopen to
	// final resolution.
	KindExtension = "extension"
)

// Record is one finished span — the wire, ring, and flight-recorder
// representation. Start and End are wall-clock UnixNano; the duration
// between them was measured monotonically by the process that owned the
// span.
type Record struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	Worker string `json:"worker,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`

	// Outcome annotations.
	Outcome string `json:"outcome,omitempty"`
	Grant   int    `json:"grant,omitempty"`
	Retry   int    `json:"retry,omitempty"`
	Err     string `json:"err,omitempty"`
}

// Header identifies the producing build and study inside the flight
// recorder's first line and every export.
type Header struct {
	Go       string `json:"go,omitempty"`
	Engine   string `json:"engine,omitempty"`
	Adaptive string `json:"adaptive,omitempty"`
	N        int    `json:"n,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
}

// fileHeader is the flight recorder's first JSONL line.
type fileHeader struct {
	Type    string `json:"type"` // always "flight-recorder"
	Version int    `json:"v"`
	Trace   uint64 `json:"trace"`
	Header
	Start int64 `json:"startNs"`
}

// FlightRecorderError is the typed failure of ReadFlightRecorder: the
// file is not a flight recorder, or one of its lines is malformed.
type FlightRecorderError struct {
	Line   int // 1-based
	Reason string
}

func (e *FlightRecorderError) Error() string {
	return fmt.Sprintf("trace: flight recorder line %d: %s", e.Line, e.Reason)
}

// ReadFlightRecorder parses a flight-recorder file: the header line and
// every finished span after it, each checked to be a span a recorder
// writes (non-zero ID, a kind, End not before Start). Like the
// checkpoint loader it drops a torn final line, the debris of a writer
// killed mid-append; anything else malformed is a *FlightRecorderError.
func ReadFlightRecorder(data []byte) (Header, []Record, error) {
	// The last element is empty after a final newline, or a torn line.
	lines := bytes.Split(data, []byte{'\n'})
	lines = lines[:len(lines)-1]
	var hdr fileHeader
	if len(lines) == 0 || json.Unmarshal(lines[0], &hdr) != nil || hdr.Type != "flight-recorder" || hdr.Version != 1 {
		return Header{}, nil, &FlightRecorderError{Line: 1, Reason: "not a version-1 flight-recorder header"}
	}
	var recs []Record
	for i, line := range lines[1:] {
		var rec Record
		err := json.Unmarshal(line, &rec)
		switch {
		case err != nil:
			return Header{}, nil, &FlightRecorderError{Line: i + 2, Reason: err.Error()}
		case rec.ID == 0 || rec.Kind == "" || rec.End < rec.Start:
			return Header{}, nil, &FlightRecorderError{Line: i + 2, Reason: "not a finished span"}
		}
		recs = append(recs, rec)
	}
	return hdr.Header, recs, nil
}

// Options configures New.
type Options struct {
	// Worker, when non-empty, puts the recorder in worker mode: span IDs
	// are drawn from a per-worker namespace (bit 63 set, the fnv32a of
	// the name in the next 31 bits) so they never collide with the
	// coordinator's sequential IDs, and finished spans accumulate in an
	// outbox drained by TakeBatch for heartbeat/completion piggybacking.
	Worker string
	// Capacity bounds the in-memory ring (default 16384 spans); the
	// oldest spans are dropped, counted by Dropped.
	Capacity int
	// TraceID pins the trace identity (0: derived from the worker name
	// and the recorder's creation time — identification only, never fed
	// back into any result).
	TraceID uint64
	// File, when non-empty, arms the JSONL flight recorder at this path.
	File string
	// Head identifies the producing build/study in the flight-recorder
	// header and every export.
	Head Header
}

// Recorder collects finished spans: a bounded in-memory ring (the
// /tracez timeline), an optional worker outbox, and an optional
// fail-stop flight-recorder file. A nil *Recorder is fully usable and
// records nothing.
type Recorder struct {
	trace  uint64
	worker string
	head   Header

	mu      sync.Mutex
	next    uint64 // last allocated local span ID (pre-namespace)
	idBase  uint64 // worker-namespace bits OR-ed onto every allocated ID
	ring    []Record
	start   int // ring read position (oldest record)
	count   int
	outbox  []Record
	batch   bool
	dropped uint64

	file *os.File
	enc  *json.Encoder
	ferr error // sticky first flight-recorder write error
}

// New builds a recorder. The only error source is the flight-recorder
// file (creation or header write).
func New(o Options) (*Recorder, error) {
	if o.Capacity <= 0 {
		o.Capacity = 16384
	}
	r := &Recorder{
		trace:  o.TraceID,
		worker: o.Worker,
		head:   o.Head,
		ring:   make([]Record, o.Capacity),
		batch:  o.Worker != "",
	}
	if o.Worker != "" {
		h := fnv.New32a()
		h.Write([]byte(o.Worker))
		r.idBase = 1<<63 | uint64(h.Sum32()&0x7fffffff)<<32
	}
	if r.trace == 0 {
		h := fnv.New64a()
		h.Write([]byte(o.Worker))
		r.trace = h.Sum64() ^ uint64(time.Now().UnixNano())
		if r.trace == 0 {
			r.trace = 1
		}
	}
	if o.File != "" {
		f, err := os.OpenFile(o.File, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, fmt.Errorf("trace: flight recorder %s: %w", o.File, err)
		}
		r.file, r.enc = f, json.NewEncoder(f)
		hdr := fileHeader{Type: "flight-recorder", Version: 1, Trace: r.trace,
			Header: o.Head, Start: time.Now().UnixNano()}
		err = r.enc.Encode(hdr)
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("trace: flight recorder %s: %w", o.File, err)
		}
	}
	return r, nil
}

// TraceID is the recorder's trace identity (0 on nil).
func (r *Recorder) TraceID() uint64 {
	if r == nil {
		return 0
	}
	return r.trace
}

// Head returns the build/study header (zero on nil).
func (r *Recorder) Head() Header {
	if r == nil {
		return Header{}
	}
	return r.head
}

// allocID hands out the next span ID in this recorder's namespace.
func (r *Recorder) allocID() uint64 {
	r.next++
	return r.idBase | r.next
}

// Span is one open span. The zero value (and any span started on a nil
// recorder) is a no-op handle: annotating and finishing it does
// nothing and allocates nothing, which is the zero-cost disabled path.
// Annotation fields may be set any time before Finish.
type Span struct {
	rec    *Recorder
	trace  uint64
	id     uint64
	parent uint64
	kind   string
	name   string
	start  time.Time

	// Annotations copied into the Record at Finish.
	Worker  string
	Outcome string
	Grant   int
	Retry   int
	Err     string
}

// Start opens a root-level span on the recorder's own trace.
func (r *Recorder) Start(kind, name string) Span {
	return r.StartRemote(kind, name, 0, 0)
}

// StartChild opens a span under parent (same trace).
func (r *Recorder) StartChild(kind, name string, parent Span) Span {
	return r.StartRemote(kind, name, parent.trace, parent.id)
}

// StartRemote opens a span under an externally propagated context —
// the worker side of a lease grant, whose trace/span IDs crossed the
// wire. A zero traceID falls back to the recorder's own trace.
func (r *Recorder) StartRemote(kind, name string, traceID, parentID uint64) Span {
	if r == nil {
		return Span{}
	}
	if traceID == 0 {
		traceID = r.trace
	}
	r.mu.Lock()
	id := r.allocID()
	r.mu.Unlock()
	return Span{rec: r, trace: traceID, id: id, parent: parentID,
		kind: kind, name: name, start: time.Now()}
}

// ID is the span's identity (0 for a no-op span), for wire propagation.
func (s Span) ID() uint64 { return s.id }

// TraceID is the span's trace (0 for a no-op span).
func (s Span) TraceID() uint64 { return s.trace }

// Open reports whether the span is live (started and not finished).
func (s Span) Open() bool { return s.rec != nil }

// Finish records the span: its end is the wall-clock start plus the
// monotonically measured elapsed time. Finishing a no-op or
// already-finished span does nothing; after Finish the handle keeps its
// IDs (for parenting later spans) but is closed.
func (s *Span) Finish() {
	if s.rec == nil {
		return
	}
	start := s.start.UnixNano()
	rec := Record{
		Trace: s.trace, ID: s.id, Parent: s.parent,
		Kind: s.kind, Name: s.name, Worker: s.Worker,
		Start: start, End: start + int64(time.Since(s.start)),
		Outcome: s.Outcome, Grant: s.Grant, Retry: s.Retry, Err: s.Err,
	}
	r := s.rec
	s.rec = nil
	r.add(rec)
}

// Emit records an externally assembled span (e.g. a scan/run child
// span reconstructed from cell timing). Zero Trace and ID fields are
// filled in from the recorder.
func (r *Recorder) Emit(rec Record) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if rec.Trace == 0 {
		rec.Trace = r.trace
	}
	if rec.ID == 0 {
		rec.ID = r.allocID()
	}
	r.mu.Unlock()
	r.add(rec)
}

// Ingest records a batch of remote spans (a worker's heartbeat or
// completion payload) verbatim: IDs were allocated in the worker's own
// namespace.
func (r *Recorder) Ingest(batch []Record) {
	if r == nil {
		return
	}
	for _, rec := range batch {
		r.add(rec)
	}
}

// add appends one finished record to the ring, the outbox, and the
// flight recorder.
func (r *Recorder) add(rec Record) {
	r.mu.Lock()
	if r.count == len(r.ring) {
		r.ring[r.start] = rec
		r.start = (r.start + 1) % len(r.ring)
		r.dropped++
	} else {
		r.ring[(r.start+r.count)%len(r.ring)] = rec
		r.count++
	}
	if r.batch {
		r.outbox = append(r.outbox, rec)
	}
	if r.file != nil && r.ferr == nil {
		// Fail-stop discipline, same as the checkpoint writer: encode,
		// fsync, and on the first failure detach the file for good — the
		// in-memory timeline keeps accumulating.
		err := r.enc.Encode(rec)
		if err == nil {
			err = r.file.Sync()
		}
		if err != nil {
			r.ferr = fmt.Errorf("trace: flight recorder write: %w", err)
			r.file.Close()
		}
	}
	r.mu.Unlock()
}

// TakeBatch drains the worker outbox: the spans finished since the
// last call, ready to ride a heartbeat or completion. Nil (and
// non-worker recorders) return nothing.
func (r *Recorder) TakeBatch() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.outbox
	r.outbox = nil
	return out
}

// Snapshot copies the ring oldest-first (nil returns nothing).
func (r *Recorder) Snapshot() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, r.count)
	for i := 0; i < r.count; i++ {
		out = append(out, r.ring[(r.start+i)%len(r.ring)])
	}
	return out
}

// Dropped counts spans evicted from the full ring.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// FileIntact reports whether the flight recorder is still attached: a
// file was armed and no write has failed. Recorders without a file
// report false.
func (r *Recorder) FileIntact() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.file != nil && r.ferr == nil
}

// Close closes the flight-recorder file, returning the sticky write
// error if one detached it. Nil-safe.
func (r *Recorder) Close() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ferr != nil {
		return r.ferr
	}
	if r.file == nil {
		return nil
	}
	err := r.file.Close()
	r.file = nil
	return err
}
