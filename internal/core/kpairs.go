package core

import (
	"repro/internal/graph"
)

// This file implements the last extension of §4.2: "For some specific
// number of tasks k, hypothesize k head-tail node pairs. If there is a
// deadlock, then either the deadlock cycle must join fewer than k tasks,
// or some set of k hypothesized pairs must be contained in a strong
// component. Cycles involving fewer than k tasks may be eliminated by
// searching the graph for them exhaustively."
//
// RefinedKPairs therefore has two phases:
//
//  1. Small cycles: every simple CLG cycle touching fewer than k tasks is
//     enumerated outright and kept only if it could be a real deadlock
//     cycle — its head nodes must be pairwise non-sequenceable (3a), not
//     joined by sync edges (2), pairwise co-executable (3b), and no task
//     may be entered and left through same-type accepts (Lemma 2).
//  2. Large cycles: every compatible set of k head-tail hypotheses from k
//     distinct tasks is tested with the usual masked strong-component
//     search, requiring the component to contain all 2k hypothesized
//     nodes.
//
// Both phases are budgeted; when a budget trips, the verdict degrades
// safely (phase 1 reports a possible deadlock, phase 2 falls back to a
// smaller k), so the detector never certifies more than it has checked.

// AlgoRefinedKPairs labels verdicts from RefinedKPairs.
const AlgoRefinedKPairs Algorithm = 100

// KPairsBudget bounds the two phases of RefinedKPairs.
type KPairsBudget struct {
	// MaxSmallCycles caps phase 1 enumeration (0 = 1<<17).
	MaxSmallCycles int
	// MaxHypothesisSets caps phase 2 subset tests (0 = 1<<17). On
	// overflow, k is reduced by one (sound; k=2 always fits its own
	// budget or recurses to the plain head-tail-pairs behaviour).
	MaxHypothesisSets int
}

func (b *KPairsBudget) fill() {
	if b.MaxSmallCycles == 0 {
		b.MaxSmallCycles = 1 << 17
	}
	if b.MaxHypothesisSets == 0 {
		b.MaxHypothesisSets = 1 << 17
	}
}

// RefinedKPairs runs the k head-tail pair detector. k must be >= 2; k == 2
// behaves like RefinedHeadTailPairs plus the (then-vacuous) small-cycle
// phase, since every deadlock cycle joins at least two tasks.
func (a *Analyzer) RefinedKPairs(k int, budget KPairsBudget) Verdict {
	if k < 2 {
		k = 2
	}
	budget.fill()
	v := Verdict{Algorithm: AlgoRefinedKPairs}

	// Phase 1: exhaustive small-cycle search (< k tasks).
	cycles, complete := a.enumerateSmallCycles(k-1, budget.MaxSmallCycles)
	if !complete {
		// Cannot certify what was not enumerated.
		v.MayDeadlock = true
		return v
	}
	ws := witnessSet{}
	for _, ci := range cycles {
		if a.plausibleDeadlockCycle(ci) {
			v.MayDeadlock = true
			ws.add(graph.Sorted(ci.Nodes))
		}
	}

	// Phase 2: k compatible head-tail hypotheses in distinct tasks, run on
	// the parallel sweep engine. Enumeration stops at the budget, so on
	// overflow exactly MaxHypothesisSets sets are tested (as the historical
	// serial recursion did) before the fallback engages.
	hyps, overflow := a.kPairHyps(k, budget.MaxHypothesisSets)
	sv := a.sweep(AlgoRefinedKPairs, hyps)
	v.Hypotheses += sv.Hypotheses
	v.SCCRuns += sv.SCCRuns
	if sv.MayDeadlock {
		v.MayDeadlock = true
		for _, w := range sv.Witnesses {
			ws.add(w)
		}
	}
	v.Witnesses = ws.list
	if overflow {
		// Budget exceeded: retry with a smaller k (sound — a deadlock
		// joining >= k tasks also joins >= k-1).
		if k > 2 {
			sub := a.RefinedKPairs(k-1, budget)
			sub.Hypotheses += v.Hypotheses
			sub.SCCRuns += v.SCCRuns
			if v.MayDeadlock {
				sub.MayDeadlock = true
				var merged witnessSet
				for _, w := range sub.Witnesses {
					merged.add(w)
				}
				for _, w := range v.Witnesses {
					merged.add(w)
				}
				sub.Witnesses = merged.list
			}
			sub.Algorithm = AlgoRefinedKPairs
			return sub
		}
		v.MayDeadlock = true
	}
	return v
}

// compatibleHeads reports whether two nodes may jointly head a deadlock
// cycle: distinct tasks, not sequenceable, no sync edge, co-executable.
func (a *Analyzer) compatibleHeads(h1, h2 int) bool {
	g := a.SG
	return g.TaskOf[h1] != g.TaskOf[h2] &&
		!a.Ord.Sequenceable(h1, h2) &&
		!g.HasSyncEdge(h1, h2) &&
		!a.Ord.NotCoexec.Get(h1, h2)
}

// plausibleDeadlockCycle applies the necessary conditions a real deadlock
// cycle must satisfy to one enumerated cycle; cycles failing any check are
// provably spurious.
func (a *Analyzer) plausibleDeadlockCycle(ci CycleInfo) bool {
	for i, h1 := range ci.Heads {
		for _, h2 := range ci.Heads[i+1:] {
			if h1 != h2 && !a.compatibleHeads(h1, h2) {
				return false
			}
		}
	}
	// Lemma 2: a task entered and exited through same-type accepts forces
	// a constraint-2 violation.
	for i, h := range ci.Heads {
		t := ci.Tails[i]
		if h == t {
			continue
		}
		for _, co := range a.Ord.CoAccept[h] {
			if co == t {
				return false
			}
		}
	}
	// Heads must be co-executable with every node on the cycle (the tails
	// and intermediates are future work of their tasks in the same run).
	for _, h := range ci.Heads {
		for _, n := range ci.Nodes {
			if n != h && a.Ord.NotCoexec.Get(h, n) {
				return false
			}
		}
	}
	return true
}

// enumerateSmallCycles lists simple CLG cycles visiting at most maxTasks
// distinct tasks, up to limit; the boolean reports exhaustiveness.
func (a *Analyzer) enumerateSmallCycles(maxTasks, limit int) ([]CycleInfo, bool) {
	if limit <= 0 {
		limit = 1 << 17
	}
	c := a.CLG
	g := c.G
	comp, _ := g.SCC()
	sizes := graph.SCCSizes(comp, g.N()+1)

	taskOf := func(v int) int { return a.SG.TaskOf[c.Orig[v]] }

	var cycles []CycleInfo
	complete := true
	path := []int{}
	onPath := make([]bool, g.N())
	taskCount := map[int]int{}

	var dfs func(start, v int) bool
	dfs = func(start, v int) bool {
		path = append(path, v)
		onPath[v] = true
		ti := taskOf(v)
		taskCount[ti]++
		defer func() {
			path = path[:len(path)-1]
			onPath[v] = false
			taskCount[ti]--
			if taskCount[ti] == 0 {
				delete(taskCount, ti)
			}
		}()
		if len(taskCount) > maxTasks {
			return true // prune: too many tasks on this path already
		}
		for _, w := range g.Succ(v) {
			if comp[w] != comp[start] || w < start {
				continue
			}
			if w == start {
				cycles = append(cycles, a.cycleInfo(path))
				if len(cycles) >= limit {
					return false
				}
				continue
			}
			if !onPath[w] {
				if !dfs(start, w) {
					return false
				}
			}
		}
		return true
	}

	for v := 0; v < g.N(); v++ {
		if sizes[comp[v]] < 2 {
			continue
		}
		if !dfs(v, v) {
			complete = false
			break
		}
	}
	// Filter: the prune above allows paths with exactly maxTasks tasks;
	// a recorded cycle may legitimately use maxTasks, which is "fewer
	// than k" as required. Drop any that slipped past with more.
	var out []CycleInfo
	for _, ci := range cycles {
		tasks := map[int]bool{}
		for _, n := range ci.Nodes {
			tasks[a.SG.TaskOf[n]] = true
		}
		if len(tasks) <= maxTasks {
			out = append(out, ci)
		}
	}
	return out, complete
}
