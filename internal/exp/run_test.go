package exp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestRunFiguresShape(t *testing.T) {
	rows, err := RunFigures()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Fixtures()) {
		t.Fatalf("rows=%d fixtures=%d", len(rows), len(Fixtures()))
	}
	for _, r := range rows {
		if r.ExactVerdict == "" || len(r.Alarms) != len(Algorithms) {
			t.Fatalf("incomplete row: %+v", r)
		}
		if !r.EnumComplete {
			t.Fatalf("%s: enumeration truncated on a fixture", r.ID)
		}
	}
	var buf bytes.Buffer
	PrintFigures(&buf, rows)
	if !strings.Contains(buf.String(), "F2b") || !strings.Contains(buf.String(), "enumerate") {
		t.Fatalf("table:\n%s", buf.String())
	}
}

func TestFixturesParse(t *testing.T) {
	for _, fx := range Fixtures() {
		p := MustProgram(fx.Source)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", fx.ID, err)
		}
	}
}

func TestRunPrecisionSmall(t *testing.T) {
	rows, skipped, err := RunPrecision(1, 10, workload.Config{
		Tasks: 2, StmtsPerTask: 2, Msgs: 2, BranchProb: 0.2, MaxDepth: 1, AcceptRatio: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Misses != 0 {
			t.Fatalf("%v missed deadlocks", r.Algorithm)
		}
		if r.CleanTotal+r.DeadTotal+skipped != 10 {
			t.Fatalf("sample accounting wrong: %+v skipped=%d", r, skipped)
		}
	}
	var buf bytes.Buffer
	PrintPrecision(&buf, rows, skipped)
	if !strings.Contains(buf.String(), "false-alarm-rate") {
		t.Fatal("table header missing")
	}
}

func TestRunScalingMonotoneSizes(t *testing.T) {
	rows, err := RunScaling([][2]int{{4, 2}, {8, 2}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if rows[1].Nodes != 2*rows[0].Nodes {
		t.Fatalf("node counts: %+v", rows)
	}
	if rows[0].CLGNodes != 2*rows[0].Nodes+2 {
		t.Fatalf("CLG node formula broken: %+v", rows[0])
	}
	var buf bytes.Buffer
	PrintScaling(&buf, rows)
	if !strings.Contains(buf.String(), "clg-edges") {
		t.Fatal("scaling table header missing")
	}
}

func TestRunExactVsStaticStates(t *testing.T) {
	rows, err := RunExactVsStatic([]int{1, 2}, 2, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].ExactStates != 3 || rows[1].ExactStates != 9 {
		t.Fatalf("state counts: %+v", rows)
	}
}

func TestRunUnrollGrowthFormula(t *testing.T) {
	rows := RunUnrollGrowth([]int{1, 3}, 2)
	for _, r := range rows {
		if r.After != r.Expected {
			t.Fatalf("depth %d: %+v", r.Depth, r)
		}
	}
}

func TestRunLadder(t *testing.T) {
	rows, err := RunLadder(workload.Pipeline(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Algorithms)+2 { // + k-pairs + enumeration
		t.Fatalf("rows=%d", len(rows))
	}
	var buf bytes.Buffer
	PrintLadder(&buf, rows)
	if !strings.Contains(buf.String(), "scc-runs") {
		t.Fatal("ladder header missing")
	}
}

// TestLadderT6Counts pins the hypotheses and scc-runs columns of
// EXPERIMENTS.md T6 (Pipeline(4,3)); only its time column is measured.
func TestLadderT6Counts(t *testing.T) {
	rows, err := RunLadder(workload.Pipeline(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := map[core.Algorithm][2]int{
		core.AlgoNaive:                {1, 1},
		core.AlgoRefined:              {14, 14},
		core.AlgoRefinedPairs:         {53, 53},
		core.AlgoRefinedHeadTail:      {27, 27},
		core.AlgoRefinedHeadTailPairs: {162, 162},
		core.AlgoRefinedKPairs:        {108, 108},
	}
	for _, r := range rows {
		w, ok := want[r.Algorithm]
		if !ok {
			continue
		}
		if r.Hypotheses != w[0] || r.SCCRuns != w[1] {
			t.Errorf("%v: hypotheses/scc-runs = %d/%d, want %d/%d",
				r.Algorithm, r.Hypotheses, r.SCCRuns, w[0], w[1])
		}
		delete(want, r.Algorithm)
	}
	if len(want) != 0 {
		t.Fatalf("ladder rows missing: %v", want)
	}
}

func TestCanonicalUnsatRuns(t *testing.T) {
	c2, c3, err := RunCanonicalUnsat()
	if err != nil {
		t.Fatal(err)
	}
	if c2 || c3 {
		t.Fatalf("canonical UNSAT produced cycles: t2=%v t3=%v", c2, c3)
	}
}

func TestTheoremAgreementRunners(t *testing.T) {
	t2, err := RunTheorem2Agreement(3, 5, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if t2.Agreements != t2.Samples {
		t.Fatalf("t2: %+v", t2)
	}
	t3, err := RunTheorem3Agreement(3, 5, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if t3.Agreements != t3.Samples {
		t.Fatalf("t3: %+v", t3)
	}
	var buf bytes.Buffer
	PrintTheoremAgreement(&buf, "x", t2)
	if !strings.Contains(buf.String(), "agree with DPLL") {
		t.Fatal("agreement line missing")
	}
}

func TestRunFamiliesMatrix(t *testing.T) {
	rows, err := RunFamilies()
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]FigureRow{}
	for _, r := range rows {
		byID[r.ID] = r
	}
	// Safety: the real deadlock is flagged by every column.
	ring := byID["ring(3)"]
	if ring.ExactVerdict != "deadlock" {
		t.Fatalf("ring exact=%s", ring.ExactVerdict)
	}
	for a, alarm := range ring.Alarms {
		if !alarm {
			t.Fatalf("ring(3): %v missed the deadlock", a)
		}
	}
	if !ring.Enumerated {
		t.Fatal("ring(3): enumeration missed the deadlock")
	}
	// Precision landmarks.
	if byID["pipeline(4,3)"].Alarms[core.AlgoRefinedPairs] {
		t.Fatal("pipeline: head pairs should certify")
	}
	if byID["pipeline(4,3)"].Enumerated {
		t.Fatal("pipeline: enumeration should certify")
	}
	if byID["ring-broken(3)"].Alarms[core.AlgoNaive] {
		t.Fatal("ring-broken: naive should certify")
	}
	if !byID["client-server(3)"].C4Certified {
		t.Fatal("client-server: constraint 4 should certify")
	}
	var buf bytes.Buffer
	PrintFamilies(&buf, rows)
	if !strings.Contains(buf.String(), "+k-pairs") {
		t.Fatal("family table header missing")
	}
}

func TestRunBaselinesAgree(t *testing.T) {
	rows, err := RunBaselines()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if !r.Agree {
			t.Fatalf("baselines disagree on %s", r.Name)
		}
		if r.NetMarkings < r.WaveStates {
			t.Fatalf("%s: net markings (%d) below wave states (%d); the net interleaves more, never less",
				r.Name, r.NetMarkings, r.WaveStates)
		}
	}
	var buf bytes.Buffer
	PrintBaselines(&buf, rows)
	if !strings.Contains(buf.String(), "verdicts-agree") {
		t.Fatal("baseline table header missing")
	}
}

func TestRunStallScaling(t *testing.T) {
	rows := RunStallScaling([]int{5, 10})
	if len(rows) != 2 || rows[0].Nodes >= rows[1].Nodes {
		t.Fatalf("%+v", rows)
	}
}
