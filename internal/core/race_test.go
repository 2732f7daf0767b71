package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/sg"
	"repro/internal/workload"
)

// TestAnalyzerConcurrentUse pins the Analyzer's read-only contract: one
// shared Analyzer must serve concurrent Run/Certify calls from many
// goroutines, each itself running a parallel sweep, with every caller
// seeing the canonical verdict. Run under -race (the CI test job does)
// this also proves the probe pool and the immutable hypothesis tables
// are free of data races.
func TestAnalyzerConcurrentUse(t *testing.T) {
	g := sg.MustFromProgram(workload.CrossRing(8, 2))
	a := NewAnalyzer(g).Session(4, nil)

	want := map[Algorithm]Verdict{}
	ref := NewAnalyzer(g).Session(1, nil)
	for _, algo := range sweepAlgorithms {
		want[algo] = ref.Run(algo)
	}

	const goroutines = 8
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				algo := sweepAlgorithms[(seed+r)%len(sweepAlgorithms)]
				if seed%2 == 0 {
					if got := a.Run(algo); !reflect.DeepEqual(got, want[algo]) {
						errs <- algo.String() + ": concurrent verdict diverged"
						return
					}
				} else if got := a.Certify(algo); got == want[algo].MayDeadlock {
					errs <- algo.String() + ": concurrent Certify diverged"
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
