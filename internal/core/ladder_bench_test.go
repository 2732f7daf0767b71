package core

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/lang"
	"repro/internal/sg"
	"repro/internal/workload"
)

// ladderRungs is the detector ladder the service's clients climb.
var ladderRungs = []Algorithm{
	AlgoNaive, AlgoRefined, AlgoRefinedPairs,
	AlgoRefinedHeadTail, AlgoRefinedHeadTailPairs,
}

// ladderCase is one program of BenchmarkDetectLadder with the verdict,
// hypothesis count and witness count each rung must report.
type ladderCase struct {
	name      string
	prog      *lang.Program
	alarm     [5]bool
	hyps      [5]int
	witnesses [5]int
}

var ladderCases = []ladderCase{
	{"Barrier(4,2)", workload.Barrier(4, 2),
		[5]bool{true, true, true, true, true},
		[5]int{1, 27, 136, 112, 1078}, [5]int{1, 22, 58, 22, 79}},
	{"CrossRing(8,2)", workload.CrossRing(8, 2),
		[5]bool{true, true, true, true, true},
		[5]int{1, 24, 236, 40, 652}, [5]int{1, 17, 65, 17, 113}},
	{"NestedLoops(3,4)", workload.NestedLoops(3, 4),
		[5]bool{true, true, true, true, true},
		[5]int{1, 34, 46, 381, 872}, [5]int{1, 11, 34, 11, 13}},
	{"Pipeline(6,3)", workload.Pipeline(6, 3),
		[5]bool{true, true, false, true, true},
		[5]int{1, 24, 206, 51, 882}, [5]int{1, 10, 0, 18, 24}},
}

// BenchmarkDetectLadder prices one serial pass of the five ladder rungs
// over programs from the end-to-end benchmark's spectrum-ladder workload,
// on prebuilt analyzers: the cost is the hypothesis sweeps alone. Every
// verdict is checked against ladderCases before timing.
//
// Run: go test -run='^$' -bench=DetectLadder -benchmem ./internal/core
func BenchmarkDetectLadder(b *testing.B) {
	analyzers := make([]*Analyzer, len(ladderCases))
	for i, lc := range ladderCases {
		p := lc.prog
		if cfg.HasLoops(p) {
			p = cfg.Unroll(p)
		}
		a := NewAnalyzer(sg.MustFromProgram(p)).Session(1, nil)
		for r, algo := range ladderRungs {
			v := a.Run(algo)
			if v.MayDeadlock != lc.alarm[r] || v.Hypotheses != lc.hyps[r] || len(v.Witnesses) != lc.witnesses[r] {
				b.Fatalf("%s %v: alarm=%v hypotheses=%d witnesses=%d, want %v/%d/%d",
					lc.name, algo, v.MayDeadlock, v.Hypotheses, len(v.Witnesses),
					lc.alarm[r], lc.hyps[r], lc.witnesses[r])
			}
		}
		analyzers[i] = a
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range analyzers {
			for _, algo := range ladderRungs {
				a.Run(algo)
			}
		}
	}
}
