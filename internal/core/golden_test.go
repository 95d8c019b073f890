package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hlfi/internal/bench"
	"hlfi/internal/compile/irc"
	"hlfi/internal/core"
	"hlfi/internal/fault"
	"hlfi/internal/ir"
	"hlfi/internal/llfi"
	"hlfi/internal/pinfi"
)

// attempt is the level-independent, comparable record of one injected
// run: everything an InjectAt result determines about the outcome.
type attempt struct {
	outcome             fault.Outcome
	output              string
	exit                int64
	err                 string
	happened, activated bool
	site                uint64
	bit                 int
	orig, faulty        uint64
}

// side is one injector seen level-independently: what a view must
// share with its reference.
type side struct {
	cands  []bool
	dyn    uint64
	golden fault.Golden
	inject func(trigger uint64, rng *rand.Rand) attempt
}

func irSide(j *llfi.Injector, err error) (side, error) {
	if err != nil {
		return side{}, err
	}
	return side{j.Candidates, j.DynTotal, j.Golden, func(trigger uint64, rng *rand.Rand) attempt {
		r := j.InjectAt(trigger, rng)
		in := r.Injection
		return attempt{r.Outcome, string(r.Output), r.Exit, fmt.Sprint(r.Err),
			in.Happened, in.Activated, in.InstrIndex, in.Bit, in.OrigVal, in.FaultyVal}
	}}, nil
}

func asmSide(j *pinfi.Injector, err error) (side, error) {
	if err != nil {
		return side{}, err
	}
	return side{j.Candidates, j.DynTotal, j.Golden, func(trigger uint64, rng *rand.Rand) attempt {
		r := j.InjectAt(trigger, rng)
		in := r.Injection
		return attempt{r.Outcome, string(r.Output), r.Exit, fmt.Sprint(r.Err),
			in.Happened, in.Activated, uint64(in.InstrIdx), in.Bit, in.OrigVal, in.FaultyVal}
	}}, nil
}

// engineArm is one replay × compiled arming of a program's views. Each
// program gets fresh configs, shared by its cells exactly as a study
// shares them.
type engineArm struct {
	name     string
	replay   *core.ReplayConfig
	compiled *core.CompiledConfig
}

func engineArms() []engineArm {
	return []engineArm{
		{"plain", nil, nil},
		{"replay", &core.ReplayConfig{}, nil},
		{"compiled", nil, &core.CompiledConfig{}},
		{"replay+compiled", &core.ReplayConfig{}, &core.CompiledConfig{}},
	}
}

// viewTriggers is the number of seeded dynamic triggers each view is
// compared at.
const viewTriggers = 20

// sameViews checks the view built under every engine arm against one
// reference injector: equal errors, or equal candidate sets, dynamic
// totals, and golden fields plus identical results at seeded triggers.
func sameViews(t *testing.T, name string, arms []engineArm, ref side, refErr error,
	view func(engineArm) (side, error)) {
	t.Helper()
	var triggers []uint64
	var want []attempt
	if refErr == nil {
		pick := rand.New(rand.NewSource(int64(ref.dyn)))
		for i := 0; i < viewTriggers; i++ {
			trigger := uint64(pick.Int63n(int64(ref.dyn)))
			triggers = append(triggers, trigger)
			want = append(want, ref.inject(trigger, rand.New(rand.NewSource(int64(i)))))
		}
	}
	for _, arm := range arms {
		v, err := view(arm)
		if refErr != nil || err != nil {
			if fmt.Sprint(refErr) != fmt.Sprint(err) {
				t.Fatalf("%s/%s: view error %v, reference error %v", name, arm.name, err, refErr)
			}
			continue
		}
		if !slices.Equal(ref.cands, v.cands) || ref.dyn != v.dyn {
			t.Fatalf("%s/%s: candidates/DynTotal diverge (view %d, reference %d)", name, arm.name, v.dyn, ref.dyn)
		}
		g, rg := v.golden, ref.golden
		if !bytes.Equal(g.Output, rg.Output) || g.Exit != rg.Exit || g.Instrs != rg.Instrs ||
			!slices.Equal(g.Profile, rg.Profile) {
			t.Fatalf("%s/%s: golden fields diverge from the reference golden run", name, arm.name)
		}
		for i, trigger := range triggers {
			if got := v.inject(trigger, rand.New(rand.NewSource(int64(i)))); got != want[i] {
				t.Fatalf("%s/%s trigger %d: view %+v, reference %+v", name, arm.name, trigger, got, want[i])
			}
		}
	}
}

// TestGoldenViewEquivalence: the injectors a campaign builds are views
// over the Program's build-time golden run, and must be
// indistinguishable from the self-contained reference (llfi.New and
// pinfi.New, which execute their own golden run) for every benchmark,
// level, and category, for a calibrated and a custom-selector
// candidate set, and under every replay × compiled arming.
func TestGoldenViewEquivalence(t *testing.T) {
	// The comparison is single-goroutine determinism; under the race
	// detector its thousands of program runs would take minutes and find
	// nothing the parallel study oracles do not already race-check.
	if testing.Short() || raceEnabled {
		t.Skip("compares every benchmark cell's views against full reference runs")
	}
	progs, err := bench.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	cal := llfi.FullCalibration()
	for _, p := range progs {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			arms := engineArms()
			img, base := p.Prep.Layout.Image, p.Prep.Layout.Base
			camp := func(arm engineArm, level fault.Level, cat fault.Category, v core.Variant) *core.Campaign {
				return &core.Campaign{Prog: p, Level: level, Category: cat, Variant: v,
					Replay: arm.replay, Compiled: arm.compiled}
			}
			for _, cat := range fault.Categories {
				ref, refErr := irSide(llfi.New(p.Prep, cat))
				sameViews(t, "LLFI/"+cat.String(), arms, ref, refErr, func(arm engineArm) (side, error) {
					return irSide(camp(arm, fault.LevelIR, cat, core.VariantPaper).IRView())
				})
				ref, refErr = asmSide(pinfi.New(p.Asm, img, base, cat))
				sameViews(t, "PINFI/"+cat.String(), arms, ref, refErr, func(arm engineArm) (side, error) {
					return asmSide(camp(arm, fault.LevelASM, cat, core.VariantPaper).ASMView())
				})
			}

			// The §VII calibrated set through the campaign's own
			// construction, and a custom-selector set (paper Figure 1,
			// step 1) viewed directly over the Program's golden run. Both
			// references view a fresh full golden run.
			full, err := llfi.New(p.Prep, fault.CatAll)
			if err != nil {
				t.Fatal(err)
			}
			calCands := llfi.CandidatesCalibrated(p.Prep, fault.CatAll, cal)
			ref, refErr := irSide(llfi.View(p.Prep, full.Golden, fault.CatAll, calCands))
			sameViews(t, "LLFI-calibrated/all", arms, ref, refErr, func(arm engineArm) (side, error) {
				return irSide(camp(arm, fault.LevelIR, fault.CatAll, core.VariantCalibrated).IRView())
			})
			programGolden := fault.Golden{Output: p.GoldenOutput, Exit: p.GoldenExit,
				Instrs: p.IRInstrs, Profile: p.IRProfile}
			adds := llfi.CandidatesFunc(p.Prep, func(in *ir.Instr) bool { return in.Op == ir.OpAdd })
			ref, refErr = irSide(llfi.View(p.Prep, full.Golden, fault.CatAll, adds))
			sameViews(t, "LLFI-custom", arms, ref, refErr, func(arm engineArm) (side, error) {
				inj, err := llfi.View(p.Prep, programGolden, fault.CatAll, adds)
				if err != nil {
					return side{}, err
				}
				if arm.replay != nil {
					snaps, err := llfi.CaptureSnapshots(p.Prep, p.IRInstrs/64+1)
					if err != nil {
						return side{}, err
					}
					inj.UseSnapshots(snaps, nil)
				}
				if arm.compiled != nil {
					cp, err := irc.Compile(p.Prep)
					if err != nil {
						return side{}, err
					}
					inj.UseCompiled(cp)
				}
				return irSide(inj, nil)
			})
		})
	}
}

// aliases reports whether two non-empty slices share their first
// element's storage.
func aliases[T any](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestCampaignViewsShareProgramGolden: every injector a campaign builds
// (both levels, plain and calibrated) aliases the Program's golden
// output and profile, so no cell can execute a golden run of its own;
// a campaign classifies against the Program's golden output; and
// Study.Dyn and DynCount are sums over the Program's profiles that
// equal the reference counts.
func TestCampaignViewsShareProgramGolden(t *testing.T) {
	p, err := bench.Build("quantumm")
	if err != nil {
		t.Fatal(err)
	}
	variants := []core.Variant{core.VariantPaper, core.VariantCalibrated}
	for _, cat := range fault.Categories {
		for _, v := range variants {
			inj, err := (&core.Campaign{Prog: p, Level: fault.LevelIR, Category: cat, Variant: v}).IRView()
			if errors.Is(err, llfi.ErrNoCandidates) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if !aliases(inj.Golden.Output, p.GoldenOutput) || !aliases(inj.Golden.Profile, p.IRProfile) {
				t.Errorf("LLFI %s (%s): injector does not alias the Program's golden run", cat, v)
			}
		}
		inj, err := (&core.Campaign{Prog: p, Level: fault.LevelASM, Category: cat}).ASMView()
		if errors.Is(err, pinfi.ErrNoCandidates) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !aliases(inj.Golden.Output, p.GoldenOutput) || !aliases(inj.Golden.Profile, p.AsmProfile) {
			t.Errorf("PINFI %s: injector does not alias the Program's golden run", cat)
		}
	}

	// Classification reads the Program's golden output: poison it and no
	// attempt can come out benign or not-activated.
	poisoned := *p
	poisoned.GoldenOutput = []byte("not the golden output\n")
	for _, level := range fault.Levels {
		for _, v := range variants {
			if v == core.VariantCalibrated && level == fault.LevelASM {
				continue
			}
			res, err := (&core.Campaign{Prog: &poisoned, Level: level, Category: fault.CatAll,
				Variant: v, N: 8, Seed: 1}).Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Benign != 0 || res.NotActivated != 0 || res.SDC == 0 {
				t.Errorf("%s (%s): campaign ignored the Program's golden output: %+v", level, v, *res)
			}
		}
	}

	// Profiling reads the Program's profiles: the reference counts on
	// the real program, and exactly triple them on a copy whose profiles
	// are tripled.
	want := map[core.CellKey]uint64{}
	for _, cat := range fault.Categories {
		if inj, err := llfi.New(p.Prep, cat); err == nil {
			want[core.CellKey{Prog: p.Name, Level: fault.LevelIR, Category: cat}] = inj.DynTotal
		}
		if inj, err := pinfi.New(p.Asm, p.Prep.Layout.Image, p.Prep.Layout.Base, cat); err == nil {
			want[core.CellKey{Prog: p.Name, Level: fault.LevelASM, Category: cat}] = inj.DynTotal
		}
	}
	tripled := *p
	tripled.IRProfile, tripled.AsmProfile = triple(p.IRProfile), triple(p.AsmProfile)
	for _, tc := range []struct {
		prog   *core.Program
		factor uint64
	}{{p, 1}, {&tripled, 3}} {
		progs := []*core.Program{tc.prog}
		st, err := core.RunStudy(core.StudyConfig{Programs: progs, N: 1, Seed: 1,
			Cells: core.CanonicalCells(progs, []fault.Category{fault.CatAll})})
		if err != nil {
			t.Fatal(err)
		}
		profile := core.ProfileStudy(progs, 1, 1)
		for _, level := range fault.Levels {
			for _, cat := range fault.Categories {
				key := core.CellKey{Prog: p.Name, Level: level, Category: cat}
				if got := st.Dyn[key]; got != tc.factor*want[key] {
					t.Errorf("x%d: Study.Dyn %v = %d, want %d", tc.factor, key, got, tc.factor*want[key])
				}
				if got := profile.Dyn[key]; got != tc.factor*want[key] {
					t.Errorf("x%d: ProfileStudy %v = %d, want %d", tc.factor, key, got, tc.factor*want[key])
				}
			}
		}
	}
}

func triple(profile []uint64) []uint64 {
	out := make([]uint64, len(profile))
	for i, n := range profile {
		out[i] = 3 * n
	}
	return out
}
