package fault

import (
	"bytes"
	"io"
	"testing"
)

// testSnap is a snapshot with nothing but the shared header.
type testSnap struct{ SnapHeader }

// snapsAt builds header-only snapshots captured at the given counts.
func snapsAt(counts ...uint64) []*testSnap {
	out := make([]*testSnap, len(counts))
	for i, n := range counts {
		out[i] = &testSnap{SnapHeader{Executed: n}}
	}
	return out
}

func TestGoldenBudget(t *testing.T) {
	for _, c := range []struct{ instrs, want uint64 }{
		{0, 1_000_000},
		{1, 1_000_020},
		{50_000, 2_000_000},
	} {
		if got := (Golden{Instrs: c.instrs}).Budget(); got != c.want {
			t.Errorf("Budget with %d golden instrs = %d, want %d", c.instrs, got, c.want)
		}
	}
}

func TestCaptureHeader(t *testing.T) {
	profile := []uint64{3, 0, 5}
	var out bytes.Buffer
	out.WriteString("abcd")
	h := CaptureHeader(42, profile, &out)
	profile[0] = 99 // the header holds a copy
	if h.Executed != 42 || h.OutLen != 4 || len(h.Profile) != 3 || h.Profile[0] != 3 {
		t.Fatalf("header = %+v", h)
	}
	if got := h.CandCount([]bool{true, true, true, true}); got != 8 {
		t.Errorf("CandCount = %d, want 8 (candidates past the profile count nothing)", got)
	}
	if h := CaptureHeader(7, nil, io.Discard); h.OutLen != 0 || h.Profile != nil {
		t.Errorf("unprofiled header to a non-buffer = %+v", h)
	}
}

func TestReplayBefore(t *testing.T) {
	cands := []bool{true, false}
	snaps := make([]*testSnap, 4)
	for i, p := range [][]uint64{{10, 7}, {25, 1}, {25, 9}, {40, 0}} {
		snaps[i] = &testSnap{SnapHeader{Executed: uint64(i + 1), Profile: p}}
	}
	r := NewReplay(snaps, cands) // candidate counts 10, 25, 25, 40
	for _, c := range []struct {
		trigger  uint64
		wantI    int
		wantBase uint64
	}{
		{0, -1, 0},  // before the first snapshot
		{9, -1, 0},  // just before it
		{10, 0, 10}, // exactly at a baseline
		{24, 0, 10},
		{25, 2, 25}, // at a repeated baseline: the latest snapshot
		{39, 2, 25},
		{40, 3, 40},
		{1 << 40, 3, 40}, // past the last one
	} {
		i, base := r.Before(c.trigger)
		if i != c.wantI || base != c.wantBase {
			t.Errorf("Before(%d) = %d, %d; want %d, %d", c.trigger, i, base, c.wantI, c.wantBase)
		}
	}

	empty := NewReplay[*testSnap](nil, cands)
	if i, base := empty.Before(5); i != -1 || base != 0 || empty.Snaps != nil {
		t.Errorf("no snapshots: Before = %d, %d; Snaps %v", i, base, empty.Snaps)
	}
}

// TestSeekSchedule walks the rejoin seek across consecutive windows.
// Each snapshot is sought until RejoinWindow past its count, from the
// snapshot (or start) before it to the one after it; the last one's
// window is bounded by the golden length.
func TestSeekSchedule(t *testing.T) {
	g := Golden{Instrs: 4400}
	var out bytes.Buffer
	c := NewConvergence(snapsAt(1000, 2000, 2400, 4000), g, &out, 200)
	const budget = 1 << 30
	if got := c.Limit(budget); got != g.Instrs {
		t.Fatalf("armed, not seeking: Limit = %d, want the golden length", got)
	}
	for _, step := range []struct {
		executed uint64
		want     uint64 // the sought snapshot's count, 0 for none
		until    uint64
	}{
		{300, 1000, 1201},  // start 200, next 2000: min(800/4, 1000/2) = 200
		{1201, 2000, 2201}, // 1000..2400: min(1000/4, 400/2) = 200
		{2300, 2400, 2501}, // 2000..4000: min(400/4, 1600/2) = 100
		{3000, 4000, 4201}, // 2400..golden 4400: min(1600/4, 400/2) = 200
		{4201, 0, 0},       // past the last window
	} {
		k, ok := c.Seek(step.executed)
		if step.want == 0 {
			if ok || c.Expired(step.executed) || c.Limit(budget) != g.Instrs {
				t.Fatalf("Seek(%d) = %v, %v; want the seek off", step.executed, k, ok)
			}
			continue
		}
		if !ok || k.Executed != step.want {
			t.Fatalf("Seek(%d) = %v, %v; want the snapshot at %d", step.executed, k, ok, step.want)
		}
		if got := c.Limit(budget); got != step.until {
			t.Fatalf("after Seek(%d): Limit = %d, want %d", step.executed, got, step.until)
		}
		if c.Expired(step.until-1) || !c.Expired(step.until) {
			t.Fatalf("after Seek(%d): the window should end at %d", step.executed, step.until)
		}
		if got := c.Limit(step.until - 1); got != step.until-1 {
			t.Fatalf("a budget below the window end: Limit = %d", got)
		}
	}
}

func TestConvergenceUnarmed(t *testing.T) {
	c := NewConvergence(snapsAt(10, 20), Golden{Instrs: 30}, io.Discard, 0)
	if _, ok := c.Seek(0); ok {
		t.Error("an unarmed run seeks")
	}
	if got := c.Limit(500); got != 500 {
		t.Errorf("unarmed Limit = %d, want the budget", got)
	}
}

func TestRejoined(t *testing.T) {
	g := Golden{Output: []byte("abcdef"), Exit: 3, Instrs: 1000}
	k := &testSnap{SnapHeader{Executed: 600, OutLen: 4}}
	arm := func(prefix string) (*Convergence[*testSnap], *bytes.Buffer) {
		out := bytes.NewBufferString(prefix)
		c := NewConvergence([]*testSnap{k}, g, out, 100)
		if _, ok := c.Seek(400); !ok {
			t.Fatal("no snapshot sought")
		}
		return &c, out
	}
	yes := func(*testSnap) bool { return true }

	c, out := arm("ab")
	out.WriteString("cd")
	if !c.Rejoined(500, 900, yes) || !c.Converged() || out.String() != "abcdef" || c.Exit() != 3 {
		t.Fatalf("rejoin: converged %v, output %q", c.Converged(), out)
	}

	for name, tc := range map[string]struct {
		written  string
		same     bool
		executed uint64
		budget   uint64
	}{
		"output differs":      {"cx", true, 500, 900},
		"output length":       {"c", true, 500, 900},
		"state differs":       {"cd", false, 500, 900},
		"tail past budget":    {"cd", true, 500, 899},
		"tail exactly budget": {"cd", true, 500, 900},
	} {
		c, out := arm("ab")
		out.WriteString(tc.written)
		got := c.Rejoined(tc.executed, tc.budget, func(*testSnap) bool { return tc.same })
		want := name == "tail exactly budget"
		if got != want || c.Converged() != want {
			t.Errorf("%s: Rejoined = %v, want %v", name, got, want)
		}
		if !want && out.Len() != 2+len(tc.written) {
			t.Errorf("%s: output grew to %q", name, out)
		}
	}
}

// TestCycleWindows checks the cycle watch's window schedule: windows
// start at the first call, double from 1,024, and each starts where
// the run is when the previous one has ended.
func TestCycleWindows(t *testing.T) {
	var out bytes.Buffer
	c := NewConvergence[*testSnap](nil, Golden{Instrs: 5000}, &out, 0)
	if !c.Watching(5000) || c.Watching(4999) {
		t.Fatal("the watch should run from the golden length on")
	}
	start := uint64(5000)
	for _, window := range []uint64{1024, 2048, 4096, 8192} {
		if !c.NewWindow(start, 7) {
			t.Fatalf("no window starts at %d", start)
		}
		if c.NewWindow(start+window-1, 7) {
			t.Fatalf("the window from %d ended before %d instructions", start, window)
		}
		start += window + 3 // the loop may reach the end a few steps late
	}

	// A repeat needs the saved output length and candidate count, and
	// the engine's compare.
	if !c.NewWindow(start, 9) {
		t.Fatal("no window")
	}
	if c.Repeated(9, func() bool { return false }) || c.Repeated(8, func() bool { return true }) || c.Cycled() {
		t.Fatal("a differing state repeated")
	}
	out.WriteByte('x')
	if c.Repeated(9, func() bool { return true }) {
		t.Fatal("a longer output repeated")
	}
	c.NewWindow(start+1<<20, 9)
	if !c.Repeated(9, func() bool { return true }) || !c.Cycled() {
		t.Fatal("an equal state did not repeat")
	}
}
