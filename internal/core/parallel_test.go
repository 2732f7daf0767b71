package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cfg"
	"repro/internal/sg"
	"repro/internal/workload"
)

// sweepAlgorithms is every detector that runs on the hypothesis engine
// (Naive and Enumerate have no hypothesis stream to shard).
var sweepAlgorithms = []Algorithm{
	AlgoRefined, AlgoRefinedPairs, AlgoRefinedHeadTail,
	AlgoRefinedHeadTailPairs, AlgoRefinedKPairs,
}

// TestParallelMatchesSerial is the determinism pin for the parallel
// hypothesis engine: on ~200 random programs, every sweep detector must
// produce byte-identical verdicts — flag, witness lists (content and
// order), hypothesis and SCC counts — at parallelism 1, 3 and 8. The
// worker counts deliberately exceed GOMAXPROCS on small machines; the
// engine honors explicit oversubscription exactly so this path stays
// testable everywhere.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tested := 0
	for i := 0; i < 200; i++ {
		c := workload.DefaultConfig()
		c.Tasks = 2 + rng.Intn(3)
		c.StmtsPerTask = 2 + rng.Intn(3)
		c.BranchProb = 0.3
		p := workload.Random(rng, c)
		if cfg.HasLoops(p) {
			p = cfg.Unroll(p)
		}
		g, err := sg.FromProgram(p)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		serial := NewAnalyzer(g).Session(1, nil)
		for _, par := range []int{3, 8} {
			parallel := NewAnalyzer(g).Session(par, nil)
			for _, algo := range sweepAlgorithms {
				want := serial.Run(algo)
				got := parallel.Run(algo)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("program %d, %v, parallelism %d: verdicts diverge\nserial:   %+v\nparallel: %+v\nprogram:\n%s",
						i, algo, par, want, got, p)
				}
				tested++
			}
		}
		// Certify must agree with the full verdict even though it
		// early-cancels.
		for _, algo := range sweepAlgorithms {
			parallel := NewAnalyzer(g).Session(4, nil)
			if got, want := parallel.Certify(algo), !serial.Run(algo).MayDeadlock; got != want {
				t.Fatalf("program %d, %v: Certify=%v, serial verdict says %v\nprogram:\n%s",
					i, algo, got, want, p)
			}
		}
	}
	t.Logf("%d verdict pairs compared", tested)
}

// TestParallelMatchesSerialDeterministicFamilies covers the structured
// workloads (where witnesses are plentiful) at several worker counts.
func TestParallelMatchesSerialDeterministicFamilies(t *testing.T) {
	programs := map[string]*sg.Graph{
		"ring5":      sg.MustFromProgram(workload.Ring(5)),
		"ringB6":     sg.MustFromProgram(workload.RingBroken(6)),
		"pipeline":   sg.MustFromProgram(workload.Pipeline(4, 3)),
		"crossring":  sg.MustFromProgram(workload.CrossRing(8, 2)),
		"clientserv": sg.MustFromProgram(workload.ClientServer(3)),
	}
	for name, g := range programs {
		serial := NewAnalyzer(g).Session(1, nil)
		for _, par := range []int{2, 5, 16} {
			parallel := NewAnalyzer(g).Session(par, nil)
			for _, algo := range sweepAlgorithms {
				t.Run(fmt.Sprintf("%s/%v/p%d", name, algo, par), func(t *testing.T) {
					want := serial.Run(algo)
					got := parallel.Run(algo)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("verdicts diverge\nserial:   %+v\nparallel: %+v", want, got)
					}
				})
			}
		}
	}
}
