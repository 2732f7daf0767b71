package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cfg"
	"repro/internal/graph"
	"repro/internal/lang"
	"repro/internal/sg"
	"repro/internal/workload"
)

// refKernel is the masked strong-component search done the obvious way:
// materialize the CLG under a probe's current markings as an explicit
// digraph and run graph.SCC on it. Its sync-edge set comes from the sync
// graph, not from the CLG's positional sync index, so the reference
// shares nothing with the kernel but the markings.
type refKernel struct {
	p    *probe
	sync map[[2]int]bool
}

func newRefKernel(p *probe) *refKernel {
	c := p.a.CLG
	r := &refKernel{p: p, sync: map[[2]int]bool{}}
	for u, adj := range p.a.SG.Sync {
		for _, v := range adj {
			r.sync[[2]int{c.Out[u], c.In[v]}] = true
		}
	}
	return r
}

// scc returns the sorted component of start under the probe's current
// markings, or nil when that component has no cycle.
func (r *refKernel) scc(start int) []int {
	p, c := r.p, r.p.a.CLG
	if p.isBlocked(start) {
		return nil
	}
	g := graph.New(c.N())
	for u := 0; u < c.N(); u++ {
		if p.isBlocked(u) {
			continue
		}
		for _, w := range c.G.Succ(u) {
			if p.isBlocked(w) || r.sync[[2]int{u, w}] && (p.noSyncOut(u) || p.noSyncIn(w)) {
				continue
			}
			g.AddEdge(u, w)
		}
	}
	comp, _ := g.SCC()
	var members []int
	for v := range comp {
		if comp[v] == comp[start] {
			members = append(members, v)
		}
	}
	if len(members) > 1 || g.HasEdge(start, start) {
		return members
	}
	return nil
}

// checkKernel compares the probe's masked search from start, under the
// probe's current markings, with the reference: the component, membership
// answers for every node, and the witness it maps to. It returns the
// reference component.
func checkKernel(r *refKernel, start int) ([]int, error) {
	p := r.p
	want := r.scc(start)
	got := slices.Clone(p.sccThrough(start))
	slices.Sort(got)
	if !reflect.DeepEqual(got, want) {
		return nil, fmt.Errorf("start %d: component %v, reference %v", start, got, want)
	}
	if want == nil {
		return nil, nil
	}
	for v := 0; v < p.a.CLG.N(); v++ {
		if in := slices.Contains(want, v); p.inComp(v) != in {
			return nil, fmt.Errorf("start %d: inComp(%d)=%v, reference %v", start, v, !in, in)
		}
	}
	var wit []int
	for _, v := range want {
		wit = append(wit, p.a.CLG.Orig[v])
	}
	slices.Sort(wit)
	if got, wit := p.witness(), slices.Compact(wit); !reflect.DeepEqual(got, wit) {
		return nil, fmt.Errorf("start %d: witness %v, reference %v", start, got, wit)
	}
	return want, nil
}

// checkRandomMarkings runs the kernel against the reference under n random
// markings, each from a random start node.
func checkRandomMarkings(a *Analyzer, rng *rand.Rand, n int) error {
	p := a.newProbe()
	defer a.putProbe(p)
	r := newRefKernel(p)
	nodes := a.CLG.N()
	for i := 0; i < n; i++ {
		p.begin()
		for v := 0; v < nodes; v++ {
			switch r := rng.Float64(); {
			case r < 0.1:
				p.block(v)
			case r < 0.25:
				p.blockSyncInto(v)
			case r < 0.4:
				p.blockSyncOutOf(v)
			case r < 0.45:
				p.blockSyncInto(v)
				p.blockSyncOutOf(v)
			}
		}
		if _, err := checkKernel(r, rng.Intn(nodes)); err != nil {
			return fmt.Errorf("marking %d: %w", i, err)
		}
	}
	return nil
}

// checkHypothesisStreams runs the kernel against the reference under the
// markings of every hypothesis the four sweep rungs test, and checks that
// each hypothesis survives exactly when the reference component holds
// all of its half-nodes.
func checkHypothesisStreams(a *Analyzer) error {
	p := a.newProbe()
	defer a.putProbe(p)
	r := newRefKernel(p)
	c := a.CLG
	for _, s := range []hypStream{a.refinedHyps(), a.refinedPairHyps(), a.headTailHyps(), a.headTailPairHyps()} {
		for i := 0; i < s.len(); i++ {
			hyp := s.at(i)
			p.mark(hyp)
			start := c.In[hyp[0].h]
			comp, err := checkKernel(r, start)
			if err != nil {
				return fmt.Errorf("hypothesis %v: %w", hyp, err)
			}
			survives := comp != nil
			for _, pr := range hyp {
				if !slices.Contains(comp, c.In[pr.h]) || pr.t >= 0 && !slices.Contains(comp, c.Out[pr.t]) {
					survives = false
				}
			}
			if got := p.test(hyp); got != survives {
				return fmt.Errorf("hypothesis %v: test=%v, reference %v", hyp, got, survives)
			}
		}
		s.release()
	}
	return nil
}

func loopFreeAnalyzer(p *lang.Program) *Analyzer {
	if cfg.HasLoops(p) {
		p = cfg.Unroll(p)
	}
	return NewAnalyzer(sg.MustFromProgram(p))
}

// TestQuickKernelMatchesReference checks the masked-SCC kernel against
// the reference on random programs, under random markings and under every
// hypothesis of the sweep rungs.
func TestQuickKernelMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := workload.DefaultConfig()
		c.Tasks = 2 + rng.Intn(3)
		c.StmtsPerTask = 2 + rng.Intn(3)
		c.BranchProb = 0.3
		c.LoopProb = 0.1
		p := workload.Random(rng, c)
		a := loopFreeAnalyzer(p)
		if err := checkRandomMarkings(a, rng, 20); err != nil {
			t.Logf("%v\nprogram:\n%s", err, p)
			return false
		}
		if err := checkHypothesisStreams(a); err != nil {
			t.Logf("%v\nprogram:\n%s", err, p)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestKernelMatchesReferenceFamilies runs the same comparison on every
// internal/workload family.
func TestKernelMatchesReferenceFamilies(t *testing.T) {
	programs := map[string]*lang.Program{
		"Pipeline(4,3)":    workload.Pipeline(4, 3),
		"Ring(5)":          workload.Ring(5),
		"RingBroken(5)":    workload.RingBroken(5),
		"ClientServer(3)":  workload.ClientServer(3),
		"Barrier(3,2)":     workload.Barrier(3, 2),
		"NestedLoops(2,4)": workload.NestedLoops(2, 4),
		"CrossRing(6,2)":   workload.CrossRing(6, 2),
		"ForkFan(2,3)":     workload.ForkFan(2, 3),
	}
	for name, p := range programs {
		t.Run(name, func(t *testing.T) {
			a := loopFreeAnalyzer(p)
			if err := checkRandomMarkings(a, rand.New(rand.NewSource(1)), 200); err != nil {
				t.Fatal(err)
			}
			if err := checkHypothesisStreams(a); err != nil {
				t.Fatal(err)
			}
		})
	}
}
