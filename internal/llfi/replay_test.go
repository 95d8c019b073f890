package llfi_test

import (
	"bytes"
	"math/rand"
	"testing"

	"hlfi/internal/fault"
	"hlfi/internal/llfi"
	"hlfi/internal/telemetry"
)

// TestReplayMatchesFullRun is the injector-level determinism oracle:
// for every dynamic trigger, an attempt served from a snapshot must
// match a full re-execution bit for bit — outcome, activation, output,
// exit code, and the injected bit itself.
func TestReplayMatchesFullRun(t *testing.T) {
	p := prepare(t)
	for _, cat := range fault.Categories {
		full, err := llfi.New(p, cat)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := llfi.New(p, cat)
		if err != nil {
			t.Fatal(err)
		}
		snaps, err := llfi.CaptureSnapshots(p, full.Golden.Instrs/8+1)
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) == 0 {
			t.Fatalf("%s: no snapshots captured", cat)
		}
		stats := &telemetry.ReplayStats{}
		snap.UseSnapshots(snaps, stats)

		for trigger := uint64(0); trigger < full.DynTotal; trigger++ {
			want := full.InjectAt(trigger, rand.New(rand.NewSource(int64(trigger))))
			got := snap.InjectAt(trigger, rand.New(rand.NewSource(int64(trigger))))
			if want.Outcome != got.Outcome {
				t.Fatalf("%s trigger %d: outcome %v != %v", cat, trigger, got.Outcome, want.Outcome)
			}
			if !bytes.Equal(want.Output, got.Output) {
				t.Fatalf("%s trigger %d: output %q != %q", cat, trigger, got.Output, want.Output)
			}
			if want.Exit != got.Exit {
				t.Fatalf("%s trigger %d: exit %d != %d", cat, trigger, got.Exit, want.Exit)
			}
			if (want.Err == nil) != (got.Err == nil) {
				t.Fatalf("%s trigger %d: err %v != %v", cat, trigger, got.Err, want.Err)
			}
			wi, gi := want.Injection, got.Injection
			if wi.Activated != gi.Activated || wi.Happened != gi.Happened ||
				wi.Bit != gi.Bit || wi.OrigVal != gi.OrigVal || wi.FaultyVal != gi.FaultyVal ||
				wi.InstrIndex != gi.InstrIndex {
				t.Fatalf("%s trigger %d: injection detail diverged: %+v != %+v", cat, trigger, gi, wi)
			}
		}
		if stats.Hits() == 0 {
			t.Errorf("%s: replay never hit a snapshot", cat)
		}
	}
}
