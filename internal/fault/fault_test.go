package fault

import (
	"encoding/json"
	"testing"
)

func TestParseCategory(t *testing.T) {
	for _, c := range Categories {
		got, err := ParseCategory(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCategory(%q) = %v, %v", c.String(), got, err)
		}
	}
	if _, err := ParseCategory("bogus"); err == nil {
		t.Error("ParseCategory(bogus) should fail")
	}
}

func TestStringers(t *testing.T) {
	if CatAll.String() != "all" || CatArith.String() != "arithmetic" ||
		CatCast.String() != "cast" || CatCmp.String() != "cmp" || CatLoad.String() != "load" {
		t.Error("category names drifted from the paper's Table III")
	}
	for _, o := range []Outcome{OutcomeBenign, OutcomeSDC, OutcomeCrash, OutcomeHang, OutcomeNotActivated} {
		if o.String() == "" {
			t.Errorf("outcome %d has no name", o)
		}
	}
	if LevelIR.String() != "LLFI" || LevelASM.String() != "PINFI" {
		t.Error("level names must match the paper's tool names")
	}
}

func TestCategoriesOrder(t *testing.T) {
	if len(Categories) != 5 || Categories[0] != CatAll {
		t.Fatalf("Categories = %v", Categories)
	}
}

// TestTextCodec: levels and categories cross JSON as their names, and an
// unknown name fails the decode instead of reading as the zero value.
func TestTextCodec(t *testing.T) {
	type rec struct {
		Level    Level    `json:"level"`
		Category Category `json:"category"`
	}
	for _, l := range Levels {
		for _, c := range Categories {
			b, err := json.Marshal(rec{l, c})
			if err != nil {
				t.Fatal(err)
			}
			if want := `{"level":"` + l.String() + `","category":"` + c.String() + `"}`; string(b) != want {
				t.Errorf("encoded %s, want %s", b, want)
			}
			var back rec
			if err := json.Unmarshal(b, &back); err != nil || back != (rec{l, c}) {
				t.Errorf("%s decoded to %+v, %v", b, back, err)
			}
		}
	}
	for _, in := range []string{`{"level":"MIPS"}`, `{"category":"branch"}`, `{"level":1}`} {
		var r rec
		if err := json.Unmarshal([]byte(in), &r); err == nil {
			t.Errorf("%s decoded to %+v without an error", in, r)
		}
	}
}
