package experiments

import (
	"strings"
	"testing"

	"github.com/weakgpu/gpulitmus/internal/campaign"
	"github.com/weakgpu/gpulitmus/internal/chip"
)

// testOpts keeps CI runtimes reasonable while preserving shape checks:
// zero cells stay zero at any budget; non-zero cells with paper rates of a
// few per 100k need enough runs to appear, so shape tests use rates from
// tests whose paper rates are high.
func testOpts() Opts { return Opts{Runs: 8000, Seed: 20150314} }

func TestFig1Shape(t *testing.T) {
	tab, err := Fig1(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	row := tab.Meas[0]
	// coRR on Fermi/Kepler (columns 0-3), zero on Maxwell and AMD.
	for j := 0; j < 4; j++ {
		if row[j] == 0 {
			t.Errorf("Fig. 1: %s must show coRR", tab.Columns[j])
		}
	}
	for j := 4; j < 7; j++ {
		if row[j] != 0 {
			t.Errorf("Fig. 1: %s must not show coRR, got %d", tab.Columns[j], row[j])
		}
	}
	if !strings.Contains(tab.String(), "paper") {
		t.Error("table must print paper rows")
	}
}

func TestFig3Shape(t *testing.T) {
	tab, err := Fig3(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	cols := tab.Columns // GTX5 TesC GTX6 Titan GTX7
	idx := func(name string) int {
		for i, c := range cols {
			if c == name {
				return i
			}
		}
		t.Fatalf("no column %s", name)
		return -1
	}
	// No-fence row: weak on GTX5, TesC, GTX6, Titan.
	for _, c := range []string{"GTX5", "TesC", "GTX6", "Titan"} {
		if tab.Meas[0][idx(c)] == 0 {
			t.Errorf("Fig. 3 no-op: %s must be weak", c)
		}
	}
	// TesC stays weak on every fence row (the headline finding).
	for r := 1; r < 4; r++ {
		if tab.Meas[r][idx("TesC")] == 0 {
			t.Errorf("Fig. 3 %s: TesC must stay weak", tab.RowTags[r])
		}
	}
	// GTX5 is clean from membar.cta on; Titan weak at cta, clean at gl.
	for r := 1; r < 4; r++ {
		if tab.Meas[r][idx("GTX5")] != 0 {
			t.Errorf("Fig. 3 %s: GTX5 must be clean", tab.RowTags[r])
		}
	}
	if tab.Meas[1][idx("Titan")] == 0 {
		t.Error("Fig. 3 membar.cta: Titan must stay weak")
	}
	for r := 2; r < 4; r++ {
		if tab.Meas[r][idx("Titan")] != 0 {
			t.Errorf("Fig. 3 %s: Titan must be clean", tab.RowTags[r])
		}
	}
}

func TestFig4Shape(t *testing.T) {
	tab, err := Fig4(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// TesC weak on all rows; GTX5 weak at no-op and cta, clean at gl/sys.
	for r := 0; r < 4; r++ {
		if tab.Meas[r][1] == 0 {
			t.Errorf("Fig. 4 %s: TesC must stay weak", tab.RowTags[r])
		}
	}
	if tab.Meas[0][0] == 0 || tab.Meas[1][0] == 0 {
		t.Error("Fig. 4: GTX5 must be weak at no-op and membar.cta")
	}
	if tab.Meas[2][0] != 0 || tab.Meas[3][0] != 0 {
		t.Error("Fig. 4: GTX5 must be clean at membar.gl and membar.sys")
	}
}

func TestFig5Shape(t *testing.T) {
	tab, err := Fig5(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		if tab.Meas[0][j] == 0 {
			t.Errorf("Fig. 5: %s must show mp-volatile", tab.Columns[j])
		}
	}
	if tab.Meas[0][4] != 0 {
		t.Errorf("Fig. 5: GTX7 must be clean, got %d", tab.Meas[0][4])
	}
}

func TestFig8NA(t *testing.T) {
	tab, err := Fig8(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// HD6570 is n/a: its emulated compiler reorders the load past the CAS
	// and optcheck rejects the binary.
	idx := -1
	for j, c := range tab.Columns {
		if c == "HD6570" {
			idx = j
		}
	}
	if tab.Meas[0][idx] != NA {
		t.Errorf("Fig. 8: HD6570 must be n/a, got %d", tab.Meas[0][idx])
	}
	// HD7970 shows the behaviour strongly.
	for j, c := range tab.Columns {
		if c == "HD7970" && tab.Meas[0][j] == 0 {
			t.Error("Fig. 8: HD7970 must be weak")
		}
	}
}

func TestFig9And11Shape(t *testing.T) {
	tab, err := Fig9(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Kepler chips and both AMD chips show stale reads (paper: TesC 47,
	// GTX6 43, Titan 512, HD6570 508, HD7970 748); Titan has the highest
	// Nvidia rate, so check it at the modest test budget.
	for j, c := range tab.Columns {
		if c == "Titan" && tab.Meas[0][j] == 0 {
			t.Error("Fig. 9: Titan must show stale reads")
		}
		if c == "GTX7" && tab.Meas[0][j] != 0 {
			t.Error("Fig. 9: GTX7 must be clean")
		}
	}

	tab11, err := Fig11(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for j, c := range tab11.Columns {
		if (c == "HD6570" || c == "HD7970") && tab11.Meas[0][j] != NA {
			t.Errorf("Fig. 11: %s must be n/a", c)
		}
	}
}

func TestRepairedFiguresSilent(t *testing.T) {
	tab, err := RepairedFigures(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tab.Meas {
		for j, v := range row {
			if v != 0 {
				t.Errorf("repaired %s on %s: %d weak outcomes", tab.RowTags[i], tab.Columns[j], v)
			}
		}
	}
}

func TestTable6TitanClaims(t *testing.T) {
	tab, err := Table6(chip.GTXTitan, Opts{Runs: 4000, Seed: 20150314})
	if err != nil {
		t.Fatal(err)
	}
	if errs := Table6KeyClaims(tab); len(errs) > 0 {
		t.Errorf("Table 6 claims violated: %v", errs)
	}
}

func TestTable6HD7970(t *testing.T) {
	tab, err := Table6(chip.HD7970, Opts{Runs: 3000, Seed: 20150314})
	if err != nil {
		t.Fatal(err)
	}
	rowOf := func(tag string) []int {
		for i, rt := range tab.RowTags {
			if rt == tag {
				return tab.Meas[i]
			}
		}
		return nil
	}
	// lb present in every column; coRR absent everywhere.
	for k, v := range rowOf("lb") {
		if v == 0 {
			t.Errorf("HD7970 lb column %d must be weak", k+1)
		}
	}
	for k, v := range rowOf("coRR") {
		if v != 0 {
			t.Errorf("HD7970 coRR column %d must be clean, got %d", k+1, v)
		}
	}
}

func TestModelValidationSound(t *testing.T) {
	v, err := ModelValidationMemo(campaign.NewMemo(), 40, 300, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Sound() {
		t.Errorf("validation unsound: %v", v.Unsound)
	}
	if v.Tests != 40 {
		t.Errorf("corpus size %d", v.Tests)
	}
	if v.WeakAllowed == 0 {
		t.Error("some generated weak outcomes must be allowed")
	}
}

func TestSorensenDivergence(t *testing.T) {
	s, err := SorensenDivergenceMemo(campaign.NewMemo())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "unsound") {
		t.Errorf("divergence report: %s", s)
	}
}

func TestCompilerChecks(t *testing.T) {
	checks, err := CompilerChecks()
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) != 4 {
		t.Fatalf("want 4 Table 2 compiler rows, got %d", len(checks))
	}
	for _, c := range checks {
		if !c.Detected {
			t.Errorf("missed: %s", c.Issue)
		}
	}
}

func TestAblations(t *testing.T) {
	out, errs, err := Ablations(Opts{Runs: 6000, Seed: 20150314})
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) > 0 {
		t.Errorf("ablation expectations violated: %v\n%s", errs, out)
	}
}

func TestShapeErrorsDetectMismatch(t *testing.T) {
	tab := &Table{
		ID: "t", Columns: []string{"a"}, RowTags: []string{"r"},
		Meas:  [][]int{{5}},
		Paper: [][]int{{0}},
	}
	if len(tab.ShapeErrors()) != 1 {
		t.Error("zero/non-zero mismatch must be reported")
	}
	tab.Paper[0][0] = 3
	if len(tab.ShapeErrors()) != 0 {
		t.Error("both non-zero is shape-clean")
	}
}
