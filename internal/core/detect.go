// Package core implements the paper's two polynomial-time deadlock
// detection algorithms and the extension spectrum of §4.2.
//
// Naive (§3.1): the program may deadlock only if its cycle location graph
// has a directed cycle. Refined (§4.2): for every hypothesized head node h,
// nodes sequenceable with h are blocked from acting as heads (sync edge
// into k_i removed), same-type co-accepts are blocked from sync traversal
// entirely, and nodes that cannot co-execute with h are removed; h is a
// possible deadlock head only if a strong component through h_i survives.
// Extensions hypothesize head pairs, head–tail pairs, and two head–tail
// pairs, trading time for precision exactly as the paper describes.
//
// All detectors are conservative: they never report "deadlock-free" for a
// program that can deadlock (property-tested against the exact wave
// explorer), but may report possible deadlocks that cannot occur.
//
// Every algorithm expects a loop-free sync graph; apply cfg.Unroll first
// (Analyze in the facade package does this automatically).
//
// Execution model: the refined detectors all test streams of independent
// hypotheses, so they run on the parallel sweep engine in sweep.go —
// per-worker probe state, deterministic merge, verdicts byte-identical to
// serial runs. See the Analyzer doc for the concurrency contract. Each
// hypothesis is one masked strong-component search (probe.go) that reads
// the CLG's positional sync index instead of looking edges up, and
// allocates nothing unless it yields a witness not seen before.
package core

import (
	"encoding/binary"
	"slices"
	"sync"

	"repro/internal/clg"
	"repro/internal/obs"
	"repro/internal/order"
	"repro/internal/sg"
)

// Algorithm names the detection variants, in increasing precision/cost.
type Algorithm int

const (
	// AlgoNaive is CLG cycle detection (constraint 1 only).
	AlgoNaive Algorithm = iota
	// AlgoRefined hypothesizes single head nodes (the paper's main
	// algorithm, approximating constraints 2 and 3a).
	AlgoRefined
	// AlgoRefinedPairs hypothesizes pairs of head nodes.
	AlgoRefinedPairs
	// AlgoRefinedHeadTail hypothesizes head-tail node pairs.
	AlgoRefinedHeadTail
	// AlgoRefinedHeadTailPairs hypothesizes two head-tail pairs (k = 2).
	AlgoRefinedHeadTailPairs
)

func (a Algorithm) String() string {
	switch a {
	case AlgoNaive:
		return "naive"
	case AlgoRefined:
		return "refined"
	case AlgoRefinedPairs:
		return "refined+head-pairs"
	case AlgoRefinedHeadTail:
		return "refined+head-tail"
	case AlgoRefinedHeadTailPairs:
		return "refined+head-tail-pairs"
	case AlgoRefinedKPairs:
		return "refined+k-pairs"
	case AlgoEnumerate:
		return "enumerate"
	}
	return "?"
}

// Verdict is the outcome of one detection run.
type Verdict struct {
	Algorithm Algorithm
	// MayDeadlock is true unless the program was certified deadlock-free.
	MayDeadlock bool
	// Witnesses holds, per surviving hypothesis, the sync-graph node ids
	// of a strong component supporting a possible deadlock (deduplicated).
	Witnesses [][]int
	// Hypotheses counts head (or pair) hypotheses tested; SCCRuns counts
	// masked strong-component searches performed.
	Hypotheses int
	SCCRuns    int
}

// Analyzer bundles a sync graph with its derived structures so the
// detection spectrum can be run without recomputing them.
//
// Concurrency: an Analyzer is read-only after construction and safe for
// concurrent use — any number of goroutines may call the detector methods
// on one shared Analyzer. All per-hypothesis mutable state (markings,
// Tarjan scratch) lives in pooled probe values, never in the Analyzer.
// Per-run knobs (sweep parallelism, trace span) are bound by Session,
// which returns a view and leaves the shared value untouched.
type Analyzer struct {
	SG  *sg.Graph
	CLG *clg.CLG
	Ord *order.Info

	// parallelism caps the worker count of hypothesis sweeps. 0 (the
	// default) means GOMAXPROCS; 1 forces serial execution; values above
	// GOMAXPROCS are honored (useful for exercising the parallel path on
	// small machines). Verdicts are identical at every setting.
	parallelism int

	// trace, when non-nil, receives the detector's work counters
	// (hypotheses tested, SCC runs, nodes pruned by each marking rule,
	// sweep worker counts). A nil trace records nothing and costs one
	// branch. Only the coordinating goroutine writes to it — workers
	// accumulate privately and the sums are merged after each sweep, so
	// totals match serial runs exactly. Trace aggregation is not
	// synchronized across detector runs, so a traced session must not run
	// detectors concurrently.
	trace *obs.Span

	// Immutable hypothesis tables, materialized once at construction so
	// the per-hypothesis hot path never recomputes or allocates them:
	// POSS-HEADS, SEQUENCEABLE and NOT-COEXEC sets per rendezvous node,
	// and tail candidates per possible head.
	heads   []int
	seqSets [][]int
	ncxSets [][]int
	tails   [][]int

	// probes is behind a pointer so Session views share one scratch pool
	// with the analyzer they alias (copying a sync.Pool is illegal).
	probes *sync.Pool
}

// Session returns a lightweight view of the analyzer binding per-run
// knobs — the sweep worker cap (0 = GOMAXPROCS, 1 = serial) and the span
// that receives the detector's work counters (nil records nothing) —
// without mutating the shared value: the view aliases every immutable
// table (and the probe pool). It is the only way to set either knob, so
// one Analyzer can serve concurrently running algorithms.
func (a *Analyzer) Session(parallelism int, trace *obs.Span) *Analyzer {
	s := *a
	s.parallelism = parallelism
	s.trace = trace
	return &s
}

// SizeBytes approximates the analyzer's resident footprint — the derived
// CLG, ordering matrices, and memoized hypothesis tables — for
// byte-budgeted caches that retain one Analyzer per program digest. The
// sync graph itself is excluded: front-end cache entries account for it.
func (a *Analyzer) SizeBytes() int64 {
	sz := a.CLG.SizeBytes() + a.Ord.SizeBytes()
	sz += int64(len(a.heads)) * 8
	for _, t := range [][][]int{a.seqSets, a.ncxSets, a.tails} {
		sz += int64(len(t)) * 24 // slice headers
		for _, row := range t {
			sz += int64(len(row)) * 8
		}
	}
	return sz
}

// NewAnalyzer builds the CLG and ordering facts for g. The sync graph must
// be loop-free for the refined detectors to gain any precision; with
// control cycles they degrade (safely) toward the naive answer.
//
// Ordering facts are snapshotted here: order.Info.AddNotCoexec calls made
// after construction are not seen by this Analyzer's detectors.
func NewAnalyzer(g *sg.Graph) *Analyzer {
	return NewAnalyzerTraced(g, nil)
}

// NewAnalyzerTraced is NewAnalyzer recording the derived structures' sizes
// (CLG nodes/edges) into span (nil span records nothing).
func NewAnalyzerTraced(g *sg.Graph, span *obs.Span) *Analyzer {
	a := &Analyzer{SG: g, CLG: clg.BuildTraced(g, span), Ord: order.Compute(g), probes: new(sync.Pool)}
	a.heads = a.computeHeads()
	n := g.N()
	a.seqSets = make([][]int, n)
	a.ncxSets = make([][]int, n)
	a.tails = make([][]int, n)
	for _, nd := range g.Nodes {
		if !nd.IsRendezvous() {
			continue
		}
		a.seqSets[nd.ID] = a.Ord.SequenceableSet(nd.ID)
		a.ncxSets[nd.ID] = a.Ord.NotCoexecSet(nd.ID)
	}
	for _, h := range a.heads {
		a.tails[h] = a.computeTailCandidates(h)
	}
	return a
}

// computeHeads derives the paper's POSS-HEADS set: rendezvous nodes with
// at least one sync edge that are the tail of at least one control edge
// leading to another rendezvous node.
func (a *Analyzer) computeHeads() []int {
	g := a.SG
	var out []int
	for _, n := range g.Nodes {
		if !n.IsRendezvous() || len(g.Sync[n.ID]) == 0 {
			continue
		}
		for _, s := range g.Control.Succ(n.ID) {
			if s != g.E && g.Nodes[s].IsRendezvous() {
				out = append(out, n.ID)
				break
			}
		}
	}
	return out
}

// PossibleHeads returns the paper's POSS-HEADS set, memoized at
// construction. Callers must not modify the returned slice.
func (a *Analyzer) PossibleHeads() []int { return a.heads }

// Naive runs CLG cycle detection.
func (a *Analyzer) Naive() Verdict {
	v := Verdict{Algorithm: AlgoNaive}
	v.Witnesses = a.CLG.Cycles()
	v.MayDeadlock = len(v.Witnesses) > 0
	v.Hypotheses = 1
	v.SCCRuns = 1
	return v
}

// computeTailCandidates derives valid tails for head h: rendezvous nodes
// with sync edges, strictly control-reachable from h, not same-type
// co-accepts of h and co-executable with h.
func (a *Analyzer) computeTailCandidates(h int) []int {
	g := a.SG
	reach := g.Control.ReachableFrom(g.Control.Succ(h)...)
	coacc := map[int]bool{}
	for _, k := range a.Ord.CoAccept[h] {
		coacc[k] = true
	}
	var out []int
	for _, n := range g.Nodes {
		t := n.ID
		if !n.IsRendezvous() || !reach[t] || len(g.Sync[t]) == 0 {
			continue
		}
		if coacc[t] || a.Ord.NotCoexec.Get(h, t) {
			continue
		}
		out = append(out, t)
	}
	return out
}

// tailCandidates returns the cached tail set for possible head h (nil for
// nodes outside POSS-HEADS). Callers must not modify the returned slice.
func (a *Analyzer) tailCandidates(h int) []int { return a.tails[h] }

// Refined runs the paper's main refined algorithm: one masked SCC search
// per possible head node. Total time O(|N_CLG| * (|N_CLG| + |E_CLG|)),
// divided across sweep workers.
func (a *Analyzer) Refined() Verdict {
	return a.sweep(AlgoRefined, a.refinedHyps())
}

// RefinedPairs hypothesizes unordered pairs of head nodes in distinct
// tasks. Pairs that are sequenceable (constraint 3a) or joined by a sync
// edge (constraint 2) cannot both head one cycle and are skipped; every
// deadlock cycle couples at least two tasks, so the pair sweep is
// exhaustive and the detector remains safe.
func (a *Analyzer) RefinedPairs() Verdict {
	return a.sweep(AlgoRefinedPairs, a.refinedPairHyps())
}

// RefinedHeadTail hypothesizes (head, tail) pairs within one task and
// requires the strong component to contain both h_i and t_o.
func (a *Analyzer) RefinedHeadTail() Verdict {
	return a.sweep(AlgoRefinedHeadTail, a.headTailHyps())
}

// RefinedHeadTailPairs combines both extensions with k = 2: two head-tail
// pairs in distinct tasks must share one strong component. The paper notes
// k = 2 is the safe limit without a separate small-cycle search, because
// every deadlock cycle joins at least two tasks.
func (a *Analyzer) RefinedHeadTailPairs() Verdict {
	return a.sweep(AlgoRefinedHeadTailPairs, a.headTailPairHyps())
}

// Run dispatches by algorithm. AlgoRefinedKPairs runs with k = 3 and
// default budgets; AlgoEnumerate runs with the default cycle budget (its
// inconclusive outcome maps to a conservative may-deadlock verdict).
func (a *Analyzer) Run(algo Algorithm) Verdict {
	var v Verdict
	switch algo {
	case AlgoNaive:
		v = a.Naive()
	case AlgoRefined:
		v = a.Refined()
	case AlgoRefinedPairs:
		v = a.RefinedPairs()
	case AlgoRefinedHeadTail:
		v = a.RefinedHeadTail()
	case AlgoRefinedHeadTailPairs:
		v = a.RefinedHeadTailPairs()
	case AlgoRefinedKPairs:
		v = a.RefinedKPairs(3, KPairsBudget{})
	case AlgoEnumerate:
		v = a.Enumerate(0).Verdict
	default:
		v = a.Refined()
	}
	a.recordVerdict(v)
	return v
}

// recordVerdict copies a verdict's work counts into the active trace span,
// so stage spans expose the same numbers the Verdict always carried.
func (a *Analyzer) recordVerdict(v Verdict) {
	if t := a.trace; t != nil {
		t.Add("hypotheses", int64(v.Hypotheses))
		t.Add("scc_runs", int64(v.SCCRuns))
		t.Add("witnesses", int64(len(v.Witnesses)))
	}
}

// witnessSet accumulates witness node lists, deduplicating by content
// while preserving first-seen order. Keys are varint-packed so dedup is
// O(total witness length), not quadratic in the number of witnesses. The
// key is built in reused scratch and looked up without allocating; a
// witness and its key are copied only when the witness is new.
type witnessSet struct {
	index map[string]int // key -> position in list
	list  [][]int
	key   []byte
}

// add records a copy of w unless an equal list is already present, and
// returns the stored list. w may be caller scratch.
func (ws *witnessSet) add(w []int) []int {
	ws.key = ws.key[:0]
	for _, v := range w {
		ws.key = binary.AppendVarint(ws.key, int64(v))
	}
	if i, ok := ws.index[string(ws.key)]; ok {
		return ws.list[i]
	}
	if ws.index == nil {
		ws.index = map[string]int{}
	}
	w = slices.Clone(w)
	ws.index[string(ws.key)] = len(ws.list)
	ws.list = append(ws.list, w)
	return w
}
