package cli

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hlfi/internal/core"
	"hlfi/internal/fault"
	"hlfi/internal/telemetry"
)

func TestLoadProgramValidation(t *testing.T) {
	if _, err := LoadProgram("", ""); err == nil {
		t.Error("neither -bench nor -src should error")
	}
	if _, err := LoadProgram("bzip2m", "x.c"); err == nil {
		t.Error("both -bench and -src should error")
	}
	if _, err := LoadProgram("nonexistent", ""); err == nil {
		t.Error("unknown benchmark should error")
	}
	if _, err := LoadProgram("", "/does/not/exist.c"); err == nil {
		t.Error("missing source file should error")
	}
}

func TestLoadProgramFromSource(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.c")
	src := `
int main() {
    int s = 0;
    for (int i = 0; i < 5; i++) s += i * i;
    print_int(s);
    print_str("\n");
    return 0;
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	prog, err := LoadProgram("", path)
	if err != nil {
		t.Fatal(err)
	}
	if string(prog.GoldenOutput) != "30\n" {
		t.Fatalf("golden output %q", prog.GoldenOutput)
	}

	var buf bytes.Buffer
	if err := RunCampaign(&buf, prog, fault.LevelIR, fault.CatAll,
		CampaignOptions{N: 20, Seed: 1, Verbose: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"LLFI", "dynamic candidate", "activated faults : 20", "crash", "sdc", "benign"} {
		if !strings.Contains(out, want) {
			t.Errorf("campaign report missing %q:\n%s", want, out)
		}
	}

	var buf2 bytes.Buffer
	if err := RunCampaign(&buf2, prog, fault.LevelASM, fault.CatCmp,
		CampaignOptions{N: 15, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "PINFI") {
		t.Errorf("asm campaign report:\n%s", buf2.String())
	}
}

// TestWireStatusz: the status endpoint Wire starts serves the study's
// /statusz from the aggregator the study records into, for a one-cell
// study exactly as for ficompare's.
func TestWireStatusz(t *testing.T) {
	prog, err := LoadProgram("quantumm", "")
	if err != nil {
		t.Fatal(err)
	}
	progs := []*core.Program{prog}
	wr, err := Wire(core.CheckpointShape{N: 5, Seed: 1}, progs, "", "127.0.0.1:0", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer wr.Close()
	cfg := core.StudyConfig{Programs: progs, N: 5, Seed: 1,
		Cells: []core.CellKey{{Prog: prog.Name, Level: fault.LevelIR, Category: fault.CatCmp}}}
	wr.Arm(&cfg)
	if _, err := core.RunStudy(cfg); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + wr.srv.Addr() + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st telemetry.StudyStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.CellsPlanned != 1 || st.CellsDone != 1 || !st.Done || len(st.Cells) != 1 || st.Cells[0].Activated != 5 {
		t.Errorf("/statusz = %+v, want the one finished cell", st)
	}
}
