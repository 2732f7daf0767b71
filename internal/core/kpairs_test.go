package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sg"
	"repro/internal/waves"
	"repro/internal/workload"
)

// A two-task deadlock joins fewer than three tasks: with k = 3 it must be
// caught by the exhaustive small-cycle phase, not the hypothesis phase.
func TestKPairsSmallCyclePhaseCatchesTwoTaskDeadlock(t *testing.T) {
	a := analyzer(t, reversedHandshake)
	v := a.RefinedKPairs(3, KPairsBudget{})
	if !v.MayDeadlock {
		t.Fatal("k=3 missed a two-task deadlock; small-cycle phase broken")
	}
	// The small-cycle phase needs no SCC hypothesis to fire here, but
	// either way the alarm must carry a witness.
	if len(v.Witnesses) == 0 {
		t.Fatal("no witness")
	}
}

func TestKPairsDetectsLargeRings(t *testing.T) {
	for n := 3; n <= 5; n++ {
		a := NewAnalyzer(sg.MustFromProgram(workload.Ring(n)))
		for k := 2; k <= 3; k++ {
			if v := a.RefinedKPairs(k, KPairsBudget{}); !v.MayDeadlock {
				t.Fatalf("ring(%d) missed at k=%d", n, k)
			}
		}
	}
}

func TestKPairsCertifiesFigure1Class(t *testing.T) {
	a := analyzer(t, figure1Class)
	for k := 2; k <= 3; k++ {
		if v := a.RefinedKPairs(k, KPairsBudget{}); v.MayDeadlock {
			t.Fatalf("k=%d failed to certify the figure-1 class: %+v", k, v.Witnesses)
		}
	}
}

func TestKPairsMatchesHeadTailPairsOnPipeline(t *testing.T) {
	// Pipeline(4,3) is the program where head *pairs* certify via
	// constraint 2 but head-tail pairs do not (tail hypotheses cannot use
	// the sync edge between heads of adjacent stages). k-pairs shares the
	// head-tail hypothesis space, so it alarms here too — the ladder is a
	// partial order (see EXPERIMENTS.md T6).
	a := NewAnalyzer(sg.MustFromProgram(workload.Pipeline(4, 3)))
	htp := a.RefinedHeadTailPairs().MayDeadlock
	kp := a.RefinedKPairs(2, KPairsBudget{}).MayDeadlock
	if kp != htp {
		t.Fatalf("k=2 (%v) disagrees with head-tail-pairs (%v)", kp, htp)
	}
	if !kp {
		t.Fatal("expected the documented alarm on Pipeline(4,3)")
	}
}

func TestKPairsBudgetFallback(t *testing.T) {
	// Absurdly small hypothesis budget forces the k=3 -> k=2 fallback;
	// the verdict must stay safe (alarm) on a real deadlock.
	a := NewAnalyzer(sg.MustFromProgram(workload.Ring(4)))
	v := a.RefinedKPairs(3, KPairsBudget{MaxHypothesisSets: 1})
	if !v.MayDeadlock {
		t.Fatal("budget fallback lost the deadlock")
	}
	// Tiny small-cycle budget: certification must be declined outright.
	a2 := analyzer(t, figure1Class)
	v2 := a2.RefinedKPairs(3, KPairsBudget{MaxSmallCycles: 1})
	if len(v2.Witnesses) != 0 && !v2.MayDeadlock {
		t.Fatal("inconsistent verdict")
	}

	// The fallback merges the k-1 verdict's witnesses with the k sets
	// already tested; the merged list must stay deduplicated. These
	// inputs used to report the same component twice.
	for _, tc := range []struct {
		name  string
		g     *sg.Graph
		limit int
		want  int
	}{
		{"Ring(6)", sg.MustFromProgram(workload.Ring(6)), 1, 1},
		{"Ring(6)", sg.MustFromProgram(workload.Ring(6)), 2, 1},
		{"Ring(6)", sg.MustFromProgram(workload.Ring(6)), 5, 1},
		{"CrossRing(4,2)", sg.MustFromProgram(workload.CrossRing(4, 2)), 20, 6},
	} {
		v := NewAnalyzer(tc.g).RefinedKPairs(3, KPairsBudget{MaxHypothesisSets: tc.limit})
		if !v.MayDeadlock {
			t.Fatalf("%s limit %d: budget fallback lost the deadlock", tc.name, tc.limit)
		}
		seen := map[string]bool{}
		for _, w := range v.Witnesses {
			k := fmt.Sprint(w)
			if seen[k] {
				t.Fatalf("%s limit %d: duplicate witness %v in %v", tc.name, tc.limit, w, v.Witnesses)
			}
			seen[k] = true
		}
		if len(v.Witnesses) != tc.want {
			t.Fatalf("%s limit %d: %d witnesses, want %d", tc.name, tc.limit, len(v.Witnesses), tc.want)
		}
	}
}

// Safety: k-pairs never certifies a program the exact explorer deadlocks,
// for k in {2, 3}.
func TestQuickKPairsSafety(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2 + rng.Intn(2)
		cfg.StmtsPerTask = 2 + rng.Intn(3)
		p := workload.Random(rng, cfg)
		exact, err := waves.ExploreProgram(p, waves.Options{MaxStates: 200000})
		if err != nil || exact.Truncated || !exact.Deadlock {
			return true
		}
		g, err := sg.FromProgram(p)
		if err != nil {
			return false
		}
		a := NewAnalyzer(g)
		for k := 2; k <= 3; k++ {
			if !a.RefinedKPairs(k, KPairsBudget{}).MayDeadlock {
				t.Logf("UNSOUND: k=%d missed deadlock in\n%s", k, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Precision: k-pairs at k=2 is at least as precise as head-tail-pairs on
// random programs (it adds the Lemma-2 and co-executability cycle filters
// to the same hypothesis space)... it may only certify MORE, never less.
func TestQuickKPairsAtLeastHeadTailPairsPrecision(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2 + rng.Intn(2)
		p := workload.Random(rng, cfg)
		g, err := sg.FromProgram(p)
		if err != nil {
			return false
		}
		a := NewAnalyzer(g)
		htp := a.RefinedHeadTailPairs().MayDeadlock
		kp := a.RefinedKPairs(2, KPairsBudget{}).MayDeadlock
		// kp alarms only if htp does OR a plausible small cycle exists;
		// a plausible small (1-task) cycle cannot exist in loop-free
		// graphs, so kp => htp.
		if kp && !htp {
			t.Logf("k-pairs alarmed where head-tail-pairs certified:\n%s", p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSmallCycleEnumeration(t *testing.T) {
	a := analyzer(t, reversedHandshake)
	cycles, complete := a.enumerateSmallCycles(2, 0)
	if !complete {
		t.Fatal("truncated")
	}
	if len(cycles) != 1 {
		t.Fatalf("cycles=%d, want 1", len(cycles))
	}
	if !a.plausibleDeadlockCycle(cycles[0]) {
		t.Fatal("the real deadlock cycle must be plausible")
	}
	// maxTasks=1: no single-task cycles exist in loop-free graphs.
	none, complete := a.enumerateSmallCycles(1, 0)
	if !complete || len(none) != 0 {
		t.Fatalf("single-task cycles: %v", none)
	}
}
