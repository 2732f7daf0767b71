package siwa

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/workload"
)

// reportDigestsFile holds one line per (program, rung): the SHA-256 of
// the marshalled JSONReport. Regenerate only when a report is meant to
// change: go test -run TestReportDigests -update-report-digests .
// The flag rewrites every digest file whose test runs, so select the
// test with -run.
const reportDigestsFile = "testdata/report_digests.txt"

var updateReportDigests = flag.Bool("update-report-digests", false,
	"rewrite the report digest files of the selected tests from the current code")

// digestRungs is the detector ladder the service's clients climb, by
// registry name.
var digestRungs = []string{"naive", "refined", "pairs", "head-tail", "ht-pairs"}

type digestProgram struct {
	label string
	prog  *Program
}

// digestPrograms is every table family at the sizes the end-to-end
// benchmark (perfbench) sends.
func digestPrograms() []digestProgram {
	var out []digestProgram
	add := func(label string, p *Program) { out = append(out, digestProgram{label, p}) }
	for _, s := range [][2]int{{4, 2}, {5, 3}, {6, 3}} {
		add(fmt.Sprintf("Pipeline(%d,%d)", s[0], s[1]), workload.Pipeline(s[0], s[1]))
	}
	for n := 4; n <= 8; n++ {
		add(fmt.Sprintf("Ring(%d)", n), workload.Ring(n))
	}
	for n := 4; n <= 8; n++ {
		add(fmt.Sprintf("RingBroken(%d)", n), workload.RingBroken(n))
	}
	for n := 2; n <= 6; n++ {
		add(fmt.Sprintf("ClientServer(%d)", n), workload.ClientServer(n))
	}
	for _, s := range [][2]int{{2, 2}, {3, 2}, {4, 2}} {
		add(fmt.Sprintf("Barrier(%d,%d)", s[0], s[1]), workload.Barrier(s[0], s[1]))
	}
	for _, s := range [][2]int{{4, 2}, {6, 2}, {8, 2}} {
		add(fmt.Sprintf("CrossRing(%d,%d)", s[0], s[1]), workload.CrossRing(s[0], s[1]))
	}
	for _, s := range [][2]int{{2, 2}, {2, 3}, {3, 2}, {3, 3}} {
		add(fmt.Sprintf("ForkFan(%d,%d)", s[0], s[1]), workload.ForkFan(s[0], s[1]))
	}
	for _, s := range [][2]int{{2, 4}, {3, 4}} {
		add(fmt.Sprintf("NestedLoops(%d,%d)", s[0], s[1]), workload.NestedLoops(s[0], s[1]))
	}
	return out
}

// TestReportDigests pins every served report byte for byte: verdicts,
// witness lists in content and order, and hypothesis and SCC-run counts.
// A detector rewrite that changes none of these keeps every digest.
func TestReportDigests(t *testing.T) {
	var got []string
	for _, p := range digestPrograms() {
		for _, rung := range digestRungs {
			algo, ok := AlgorithmByName(rung)
			if !ok {
				t.Fatalf("unknown rung %q", rung)
			}
			rep, err := AnalyzeSource(p.prog.String(), Options{Algorithm: algo})
			if err != nil {
				t.Fatalf("%s %s: %v", p.label, rung, err)
			}
			got = append(got, p.label+" "+rung+" "+reportDigest(t, rep))
		}
	}
	matchDigestFile(t, reportDigestsFile, got)
}

// reportDigest is the SHA-256 of the marshalled JSONReport, hex-encoded.
func reportDigest(t *testing.T, rep *Report) string {
	t.Helper()
	data, err := json.Marshal(rep.JSONReport())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// matchDigestFile compares got line by line against the checked-in digest
// file, or rewrites the file under -update-report-digests.
func matchDigestFile(t *testing.T, file string, got []string) {
	t.Helper()
	if *updateReportDigests {
		if err := os.WriteFile(file, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d digests, %s has %d", len(got), file, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("report changed:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
