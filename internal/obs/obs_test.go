package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(3)
	g.SetUint64(4)
	g.Inc()
	g.Dec()
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram recorded")
	}
	var r *Registry
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "", nil) != nil {
		t.Error("nil registry handed out instruments")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Errorf("nil registry render: %v", err)
	}
	var m *Metrics
	if m.Registry() != nil {
		t.Error("nil metrics has a registry")
	}
	m.Outcome("sdc").Inc() // must not panic
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	if r.Counter("c_total", "a counter") != c {
		t.Error("re-registering a counter returned a new instrument")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(5)
	g.Inc()
	g.Dec()
	g.Dec()
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}
	g.SetUint64(^uint64(0))
	if g.Value() <= 0 {
		t.Errorf("uint64 overflow clamped to %d, want max int64", g.Value())
	}

	h := r.Histogram("h", "a histogram", []float64{1, 10})
	for _, x := range []float64{0.5, 1, 2, 100} {
		h.Observe(x)
	}
	if h.Count() != 4 {
		t.Errorf("histogram count = %d, want 4", h.Count())
	}
	if h.Sum() != 103.5 {
		t.Errorf("histogram sum = %v, want 103.5", h.Sum())
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("hlfi_attempts_total", "Attempts.").Add(12)
	r.Counter(`hlfi_outcomes_total{outcome="sdc"}`, "Outcomes.").Add(3)
	r.Counter(`hlfi_outcomes_total{outcome="crash"}`, "Outcomes.").Add(4)
	r.Gauge("hlfi_cells_in_flight", "In flight.").Set(2)
	h := r.Histogram("hlfi_attempt_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE hlfi_attempts_total counter\n",
		"hlfi_attempts_total 12\n",
		`hlfi_outcomes_total{outcome="crash"} 4` + "\n",
		`hlfi_outcomes_total{outcome="sdc"} 3` + "\n",
		"# TYPE hlfi_cells_in_flight gauge\n",
		"hlfi_cells_in_flight 2\n",
		"# TYPE hlfi_attempt_seconds histogram\n",
		`hlfi_attempt_seconds_bucket{le="0.1"} 1` + "\n",
		`hlfi_attempt_seconds_bucket{le="1"} 2` + "\n",
		`hlfi_attempt_seconds_bucket{le="+Inf"} 3` + "\n",
		"hlfi_attempt_seconds_sum 5.55\n",
		"hlfi_attempt_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// One HELP/TYPE pair per family even with two labeled series.
	if n := strings.Count(out, "# TYPE hlfi_outcomes_total"); n != 1 {
		t.Errorf("outcomes family has %d TYPE lines, want 1", n)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram([]float64{1, 2, 3})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(2.5)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Errorf("count = %d, want 8000", h.Count())
	}
	if h.Sum() != 8000*2.5 {
		t.Errorf("sum = %v, want %v", h.Sum(), 8000*2.5)
	}
}

// TestCollectorStoresBeforeRender: a registry's collector runs at the
// start of every render, so series it Stores read their owner's value
// as of the scrape, histograms included.
func TestCollectorStoresBeforeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("owned_total", "a mirrored count")
	h := r.Histogram("owned", "a mirrored distribution", []float64{1, 10})
	owner := uint64(0)
	r.SetCollector(func() {
		c.Store(owner)
		h.Store([]uint64{owner, 1, 2}, 42)
		r.Gauge(Label("late_info", "k", "v"), "registered by the collector").Set(1)
	})
	owner = 3
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"owned_total 3\n",
		`owned_bucket{le="1"} 3` + "\n",
		`owned_bucket{le="10"} 4` + "\n",
		`owned_bucket{le="+Inf"} 6` + "\n",
		"owned_sum 42\n",
		"owned_count 6\n",
		`late_info{k="v"} 1` + "\n",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render lacks %q:\n%s", want, sb.String())
		}
	}
}

func TestMetricsOutcomeMapping(t *testing.T) {
	m := New()
	for _, name := range []string{"benign", "sdc", "crash", "hang", "not-activated"} {
		if m.Outcome(name) == nil {
			t.Errorf("no counter for outcome %q", name)
		}
		m.Outcome(name).Inc()
	}
	if m.Outcome("nonsense") != nil {
		t.Error("unknown outcome mapped to a counter")
	}
	if m.Crash.Value() != 1 || m.NotAct.Value() != 1 {
		t.Error("outcome counters not wired to the named fields")
	}
}

func TestServerEndpoints(t *testing.T) {
	m := New()
	m.Attempts.Add(42)
	status := func() any {
		return map[string]int{"cellsDone": 7}
	}
	srv, err := StartServerTrace("127.0.0.1:0", m.Registry(), status, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		client := &http.Client{Timeout: 5 * time.Second}
		resp, err := client.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if out := get("/metrics"); !strings.Contains(out, "hlfi_attempts_total 42") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	if out := get("/statusz"); !strings.Contains(out, `"cellsDone": 7`) {
		t.Errorf("/statusz missing status JSON:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
	if out := get("/"); !strings.Contains(out, "/statusz") {
		t.Errorf("index page missing endpoint list:\n%s", out)
	}
}

// TestCloseDrainsInFlightScrape is the regression test for the severed-
// scrape bug: Close used http.Server.Close, which cut connections
// mid-response, so a scraper racing study shutdown read a truncated
// body. Close must drain: a request already in its handler when Close
// begins completes with a full body, and Close returns only after it
// has.
func TestCloseDrainsInFlightScrape(t *testing.T) {
	inHandler := make(chan struct{})
	release := make(chan struct{})
	status := func() any {
		close(inHandler)
		<-release
		return map[string]string{"state": "complete-body"}
	}
	srv, err := StartServerTrace("127.0.0.1:0", New().Registry(), status, nil)
	if err != nil {
		t.Fatal(err)
	}

	body := make(chan string, 1)
	fail := make(chan error, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("http://%s/statusz", srv.Addr()))
		if err != nil {
			fail <- err
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			fail <- err
			return
		}
		body <- string(b)
	}()
	<-inHandler

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	// Close must not return while the scrape is still in its handler.
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a scrape in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	select {
	case b := <-body:
		if !strings.Contains(b, "complete-body") {
			t.Errorf("scrape body truncated: %q", b)
		}
	case err := <-fail:
		t.Fatalf("in-flight scrape severed by Close: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("scrape never completed")
	}
	if err := <-closed; err != nil {
		t.Errorf("Close = %v after clean drain, want nil", err)
	}

	// After Close the listener is gone and a nil server stays a no-op.
	if _, err := http.Get(fmt.Sprintf("http://%s/statusz", srv.Addr())); err == nil {
		t.Error("server still accepting connections after Close")
	}
	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Errorf("nil Close = %v", err)
	}
}
