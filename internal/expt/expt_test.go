package expt

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

var quick = Config{Seed: 42, Trials: 40}

func renderToString(t *testing.T, tab *Table) string {
	t.Helper()
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, tab.ID) || !strings.Contains(out, tab.Title) {
		t.Errorf("render missing ID/title:\n%s", out)
	}
	return out
}

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("table %s has no cell (%d, %d)", tab.ID, row, col)
	}
	return tab.Rows[row][col]
}

func cellFloat(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("table %s cell (%d,%d) = %q not a float", tab.ID, row, col, cell(t, tab, row, col))
	}
	return v
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Header: []string{"a", "b"}}
	tab.AddRow(1, 2.50)
	tab.AddRow("x,y", "quo\"te")
	tab.Note("hello %d", 7)
	out := renderToString(t, tab)
	if !strings.Contains(out, "hello 7") {
		t.Error("note missing")
	}
	if !strings.Contains(out, "2.5") || strings.Contains(out, "2.500") {
		t.Error("float trimming wrong")
	}
	var csv bytes.Buffer
	tab.CSV(&csv)
	if !strings.Contains(csv.String(), "\"x,y\"") || !strings.Contains(csv.String(), "\"quo\"\"te\"") {
		t.Errorf("CSV quoting wrong: %s", csv.String())
	}
}

func TestFig1Table(t *testing.T) {
	tab := Fig1()
	if len(tab.Rows) != 16 {
		t.Fatalf("Fig1 rows = %d, want 16", len(tab.Rows))
	}
	out := renderToString(t, tab)
	for _, want := range []string{
		"1110 -> 1111 -> 1101 -> 0101 -> 0001",
		"0001 -> 0000 -> 1000 -> 1100",
		"stabilized after 2 rounds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig1 output missing %q", want)
		}
	}
}

func TestTable1(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if got := cell(t, tab, 0, 2); got != "9" {
		t.Errorf("safety-level count = %s, want 9", got)
	}
	if got := cell(t, tab, 1, 2); got != "9" {
		t.Errorf("WF count = %s, want 9 (literal Definition 3)", got)
	}
	if got := cell(t, tab, 2, 2); got != "0" {
		t.Errorf("LH count = %s, want 0", got)
	}
}

func TestFig2ShapeAndClaim(t *testing.T) {
	tab := Fig2(Config{Seed: 42, Trials: 120})
	if len(tab.Rows) != 17 {
		t.Fatalf("rows = %d, want 17 (faults 0..32 step 2)", len(tab.Rows))
	}
	// Paper claim: below n = 7 faults the average is under 2 rounds.
	for _, row := range tab.Rows {
		f, _ := strconv.Atoi(row[0])
		avg, _ := strconv.ParseFloat(row[1], 64)
		if f < 7 && avg >= 2 {
			t.Errorf("faults=%d: avg rounds %f >= 2, contradicts paper claim", f, avg)
		}
		max, _ := strconv.Atoi(row[3])
		if max > 6 {
			t.Errorf("faults=%d: max rounds %d > n-1", f, max)
		}
	}
	// Monotone-ish growth: the last point should need more rounds than
	// the first nonzero point.
	first := cellFloat(t, tab, 1, 1)
	last := cellFloat(t, tab, len(tab.Rows)-1, 1)
	if last <= first {
		t.Errorf("rounds should grow with faults: first %f, last %f", first, last)
	}
}

func TestFig3Table(t *testing.T) {
	tab := Fig3()
	out := renderToString(t, tab)
	for _, want := range []string{"optimal", "failure", "aborted", "Lee-Hayes safe set size: 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 output missing %q", want)
		}
	}
	// Row 0: 0101 -> 0000 optimal C1; row 2 and 3 failures.
	if cell(t, tab, 0, 5) != "optimal" || cell(t, tab, 0, 4) != "C1" {
		t.Error("0101 -> 0000 should be C1/optimal")
	}
	if cell(t, tab, 1, 5) != "optimal" || cell(t, tab, 1, 4) != "C2" {
		t.Error("0111 -> 1011 should be C2/optimal")
	}
	if cell(t, tab, 2, 5) != "failure" || cell(t, tab, 3, 5) != "failure" {
		t.Error("cross-partition unicasts should fail")
	}
}

func TestFig4Table(t *testing.T) {
	tab := Fig4()
	out := renderToString(t, tab)
	if !strings.Contains(out, "1101 -> 1111 -> 1011 -> 1010 -> 1000") {
		t.Error("Fig4 route missing")
	}
	// N2 rows: 1000 public 0 own 1; 1001 public 0 own 2.
	foundN2 := 0
	for _, row := range tab.Rows {
		if row[3] == "N2" {
			foundN2++
			switch row[0] {
			case "1000":
				if row[1] != "0" || row[2] != "1" {
					t.Errorf("1000 levels = %s/%s, want 0/1", row[1], row[2])
				}
			case "1001":
				if row[1] != "0" || row[2] != "2" {
					t.Errorf("1001 levels = %s/%s, want 0/2", row[1], row[2])
				}
			}
		}
	}
	if foundN2 != 2 {
		t.Errorf("N2 nodes = %d, want 2", foundN2)
	}
}

func TestFig5Table(t *testing.T) {
	tab := Fig5()
	out := renderToString(t, tab)
	if !strings.Contains(out, "010 -> 000 -> 001 -> 101") {
		t.Error("Fig5 route missing")
	}
	if !strings.Contains(out, "safe nodes: 4") {
		t.Error("Fig5 safe count missing")
	}
	if len(tab.Rows) != 12 {
		t.Errorf("rows = %d, want 12", len(tab.Rows))
	}
}

func TestSafeSetSizesInclusion(t *testing.T) {
	tab := SafeSetSizes(quick)
	for i, row := range tab.Rows {
		sl, _ := strconv.ParseFloat(row[1], 64)
		wf, _ := strconv.ParseFloat(row[2], 64)
		lh, _ := strconv.ParseFloat(row[3], 64)
		if lh > wf+1e-9 || wf > sl+1e-9 {
			t.Errorf("row %d: inclusion chain violated: LH %f WF %f SL %f", i, lh, wf, sl)
		}
		if row[4] != "0" {
			t.Errorf("row %d: %s inclusion violations", i, row[4])
		}
	}
	// At zero faults everything is safe.
	if got := cellFloat(t, tab, 0, 1); got != 128 {
		t.Errorf("fault-free SL safe = %f, want 128", got)
	}
}

func TestRoundsComparisonTable(t *testing.T) {
	tab := RoundsComparison(Config{Seed: 42, Trials: 30})
	if len(tab.Rows) != 16 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		n, _ := strconv.Atoi(row[0])
		gsMax, _ := strconv.Atoi(row[3])
		if gsMax > n-1 {
			t.Errorf("row %d: GS max %d exceeds n-1", i, gsMax)
		}
	}
}

func TestGuaranteeNoFailuresBelowN(t *testing.T) {
	tab, results := Guarantee(quick)
	if len(results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range results {
		if r.Failures != 0 {
			t.Errorf("n=%d faults=%d: %d failures below n", r.N, r.Faults, r.Failures)
		}
		if r.Attempts == 0 {
			t.Errorf("n=%d faults=%d: no attempts", r.N, r.Faults)
		}
		if r.Optimal+r.Suboptimal != r.Attempts {
			t.Errorf("n=%d faults=%d: outcome counts inconsistent", r.N, r.Faults)
		}
	}
	renderToString(t, tab)
}

func TestTheorem4Table(t *testing.T) {
	tab := Theorem4(Config{Seed: 42, Trials: 20})
	for i, row := range tab.Rows {
		if row[2] != "0" || row[3] != "0" {
			t.Errorf("row %d: LH/WF safe counts %s/%s, want 0/0", i, row[2], row[3])
		}
		if det, _ := strconv.ParseFloat(row[4], 64); det != 100 {
			t.Errorf("row %d: cross-partition detection %f%%, want 100", i, det)
		}
	}
}

func TestCompareTable(t *testing.T) {
	tab := Compare(Config{Seed: 42, Trials: 60})
	if len(tab.Rows) != 30 {
		t.Fatalf("rows = %d, want 5 fault loads x 6 schemes", len(tab.Rows))
	}
	get := func(load, scheme string) []float64 {
		for _, row := range tab.Rows {
			if row[0] == load && row[1] == scheme {
				out := make([]float64, 6)
				for i := 0; i < 6; i++ {
					out[i], _ = strconv.ParseFloat(row[2+i], 64)
				}
				return out
			}
		}
		t.Fatalf("no row for load %s scheme %s", load, scheme)
		return nil
	}
	// Light faults (2 < n): safety-level admits and delivers everything,
	// nearly all optimally.
	sl2 := get("2", "safety-level")
	if sl2[1] < 100 {
		t.Errorf("safety-level delivered%% at 2 faults = %f, want 100", sl2[1])
	}
	if sl2[2] < 90 {
		t.Errorf("safety-level optimal%% at 2 faults = %f, want >= 90", sl2[2])
	}
	for _, load := range []string{"2", "6", "12", "20", "32"} {
		sl := get(load, "safety-level")
		// The paper's guarantee: every delivered safety-level message is
		// within H+2 at every load.
		if sl[1] > 0 && sl[3] != 100 {
			t.Errorf("load %s: safety-level within-H+2 = %f, want 100", load, sl[3])
		}
		// DFS is complete: it delivers at least as much as safety-level.
		dfs := get(load, "chen-shin-dfs")
		if dfs[1]+1e-9 < sl[1] {
			t.Errorf("load %s: DFS delivered %f below safety-level %f", load, dfs[1], sl[1])
		}
	}
	// At the heaviest load DFS pays for completeness with longer walks.
	if dfs32 := get("32", "chen-shin-dfs"); dfs32[4] <= get("32", "safety-level")[4] {
		t.Errorf("DFS stretch %f should exceed safety-level stretch %f at 32 faults",
			dfs32[4], get("32", "safety-level")[4])
	}
}

func TestTieBreakAblation(t *testing.T) {
	tab := TieBreakAblation(Config{Seed: 42, Trials: 20})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Outcome classes must agree between the two policies.
	if tab.Rows[0][4] != "0" {
		t.Errorf("tie-break outcome mismatches = %s, want 0", tab.Rows[0][4])
	}
	// Both policies deliver the same number of messages with the same
	// average length (only physical paths differ).
	if tab.Rows[0][1] != tab.Rows[1][1] {
		t.Errorf("delivery counts differ: %s vs %s", tab.Rows[0][1], tab.Rows[1][1])
	}
	if tab.Rows[0][2] != tab.Rows[1][2] {
		t.Errorf("average lengths differ: %s vs %s", tab.Rows[0][2], tab.Rows[1][2])
	}
}

func TestTruncatedGSAblation(t *testing.T) {
	tab := TruncatedGSAblation(Config{Seed: 42, Trials: 30})
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "6" {
		t.Fatalf("last row D = %s, want 6", last[0])
	}
	for col := 1; col < 5; col++ {
		if v, _ := strconv.ParseFloat(last[col], 64); v != 0 {
			t.Errorf("D = n-1: column %d = %s, want 0", col, last[col])
		}
	}
	// D = 1 should show at least some wrong levels on clustered faults.
	if v := cellFloat(t, tab, 0, 1); v == 0 {
		t.Error("D = 1 shows no wrong levels; ablation not exercising anything")
	}
}

func TestDistributedTable(t *testing.T) {
	tab := Distributed(Config{Seed: 42, Trials: 4})
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		if v, _ := strconv.ParseFloat(row[4], 64); v != 1 {
			t.Errorf("row %d: msgs/link/round = %s, want exactly 1", i, row[4])
		}
		delivered, _ := strconv.Atoi(row[6])
		unicasts, _ := strconv.Atoi(row[5])
		if delivered > unicasts {
			t.Errorf("row %d: delivered > attempted", i)
		}
	}
}

func TestUpdateStrategiesTable(t *testing.T) {
	tab := UpdateStrategies(Config{Seed: 42, Trials: 3})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][3] != "true" || tab.Rows[1][3] != "true" {
		t.Error("both strategies must end with correct levels")
	}
	periodic := cellFloat(t, tab, 0, 2)
	driven := cellFloat(t, tab, 1, 2)
	if driven >= periodic {
		t.Errorf("state-change-driven (%f msgs) should cost less than periodic (%f)", driven, periodic)
	}
}

func TestScenarioConstructors(t *testing.T) {
	if Fig1Set().NodeFaults() != 4 {
		t.Error("Fig1Set should have 4 faults")
	}
	if Fig3Set().NodeFaults() != 4 {
		t.Error("Fig3Set should have 4 faults")
	}
	s4 := Fig4Set()
	if s4.NodeFaults() != 4 || s4.LinkFaults() != 1 {
		t.Error("Fig4Set should have 4 node faults and 1 link fault")
	}
	if Fig5Set().NodeFaults() != 4 {
		t.Error("Fig5Set should have 4 faults")
	}
	if Section23Set().NodeFaults() != 3 || Property2Set().NodeFaults() != 3 {
		t.Error("Section 2.3 / Property 2 sets should have 3 faults")
	}
}

func TestTableJSON(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Header: []string{"a"}, Rows: [][]string{{"1"}}}
	tab.Note("n")
	var buf bytes.Buffer
	if err := tab.JSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ID    string     `json:"id"`
		Rows  [][]string `json:"rows"`
		Notes []string   `json:"notes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.ID != "X" || len(doc.Rows) != 1 || len(doc.Notes) != 1 {
		t.Errorf("decoded %+v", doc)
	}
}

// TestDiagnoseSweepTable pins E21's law: within the diagnosability
// bound every adversary row reads identified = exact = 1 and ambiguous
// = 0; beyond the bound the worst-case adversaries (invert, stealth)
// read ambiguous = 1.
func TestDiagnoseSweepTable(t *testing.T) {
	tab := DiagnoseSweep(Config{Seed: 42, Trials: 10})
	if tab.ID != "E21" || len(tab.Rows) == 0 {
		t.Fatalf("table %s with %d rows", tab.ID, len(tab.Rows))
	}
	for row := range tab.Rows {
		bound, _ := strconv.Atoi(cell(t, tab, row, 1))
		k, _ := strconv.Atoi(cell(t, tab, row, 2))
		adv := cell(t, tab, row, 3)
		identified := cellFloat(t, tab, row, 5)
		exact := cellFloat(t, tab, row, 6)
		ambiguous := cellFloat(t, tab, row, 7)
		if k <= bound {
			if identified != 1 || exact != 1 || ambiguous != 0 {
				t.Errorf("row %d (|F|=%d <= %d, %s): identified %v exact %v ambiguous %v",
					row, k, bound, adv, identified, exact, ambiguous)
			}
		} else if adv == "invert" || adv == "stealth" {
			if ambiguous != 1 {
				t.Errorf("row %d (|F|=%d > %d, %s): ambiguous %v, want 1",
					row, k, bound, adv, ambiguous)
			}
		}
	}
}
