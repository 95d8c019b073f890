// Package fault defines the shared fault model of the study (paper §II-A):
// transient single-bit flips in the result of one dynamic instruction,
// classified into the instruction categories of Table III and the outcome
// taxonomy of §V.
package fault

import (
	"bytes"
	"fmt"
)

// Category is an injection-target instruction category (paper Table III).
type Category int

// Categories.
const (
	CatAll Category = iota + 1
	CatArith
	CatCast
	CatCmp
	CatLoad
)

// Categories lists all categories in the paper's presentation order.
var Categories = []Category{CatAll, CatArith, CatCast, CatCmp, CatLoad}

func (c Category) String() string {
	switch c {
	case CatAll:
		return "all"
	case CatArith:
		return "arithmetic"
	case CatCast:
		return "cast"
	case CatCmp:
		return "cmp"
	case CatLoad:
		return "load"
	default:
		return fmt.Sprintf("category(%d)", int(c))
	}
}

// ParseCategory converts a name to a Category.
func ParseCategory(s string) (Category, error) {
	for _, c := range Categories {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown category %q (want all|arithmetic|cast|cmp|load)", s)
}

// MarshalText encodes a category by its name, so every JSON record that
// carries one (checkpoint lines, warehouse records, fleet messages)
// stays human-readable.
func (c Category) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText decodes a category name; an unknown name is an error.
func (c *Category) UnmarshalText(b []byte) (err error) {
	*c, err = ParseCategory(string(b))
	return err
}

// Outcome classifies one injection run (paper §V, "Failure
// categorization").
type Outcome int

// Outcomes. NotActivated runs are excluded from percentages and redrawn,
// per the paper's activated-faults-only accounting.
const (
	OutcomeBenign Outcome = iota + 1
	OutcomeSDC
	OutcomeCrash
	OutcomeHang
	OutcomeNotActivated
)

func (o Outcome) String() string {
	switch o {
	case OutcomeBenign:
		return "benign"
	case OutcomeSDC:
		return "sdc"
	case OutcomeCrash:
		return "crash"
	case OutcomeHang:
		return "hang"
	case OutcomeNotActivated:
		return "not-activated"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Level identifies the injection level.
type Level int

// Levels: LLFI injects at the IR level, PINFI at the assembly level.
const (
	LevelIR Level = iota + 1
	LevelASM
)

// Levels lists both injection levels in presentation order.
var Levels = []Level{LevelIR, LevelASM}

// ParseLevel converts a level name (as produced by Level.String) back to
// a Level.
func ParseLevel(s string) (Level, error) {
	for _, l := range Levels {
		if l.String() == s {
			return l, nil
		}
	}
	return 0, fmt.Errorf("unknown level %q (want LLFI|PINFI)", s)
}

// MarshalText encodes a level by its tool name, like Category's.
func (l Level) MarshalText() ([]byte, error) { return []byte(l.String()), nil }

// UnmarshalText decodes a tool name; an unknown name is an error.
func (l *Level) UnmarshalText(b []byte) (err error) {
	*l, err = ParseLevel(string(b))
	return err
}

func (l Level) String() string {
	switch l {
	case LevelIR:
		return "LLFI"
	case LevelASM:
		return "PINFI"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Golden is the fault-free reference execution of one program at one
// level: the output and exit code every injected run is classified
// against, the dynamic instruction count that sizes the hang budget,
// and the per-instruction execution profile that the dynamic candidate
// counts of §V are summed from. It is computed once per (program,
// level) and shared read-only by every injector built over it.
type Golden struct {
	Output  []byte
	Exit    int64
	Instrs  uint64
	Profile []uint64
}

// DynCount sums the profile over a candidate set: the number of dynamic
// injection opportunities (the N of paper §V).
func (g Golden) DynCount(candidates []bool) uint64 {
	var n uint64
	for i, c := range candidates {
		if c {
			n += g.Profile[i]
		}
	}
	return n
}

// Classify is the outcome of one injected run against the golden run.
// hung reports that the run exhausted its hang budget; any other err is
// a crash. A corrupted output always counts as an (activated) SDC, even
// if the activation tracker somehow missed the read: the fault
// demonstrably influenced execution.
func (g Golden) Classify(output []byte, exit int64, err error, hung, activated bool) Outcome {
	switch {
	case hung:
		return OutcomeHang
	case err != nil:
		return OutcomeCrash
	case !bytes.Equal(output, g.Output) || exit != g.Exit:
		return OutcomeSDC
	case !activated:
		return OutcomeNotActivated
	default:
		return OutcomeBenign
	}
}
