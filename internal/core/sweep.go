package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel hypothesis engine. Every masked-SCC detector
// in the spectrum factors into the same shape: enumerate a stream of
// independent hypotheses (heads, head pairs, head–tail pairs, k-sets of
// head–tail pairs), test each one with private markings + one masked
// strong-component search, and merge the verdicts. Hypotheses never
// interact — each test reads only the analyzer's immutable tables — so
// the stream shards freely across workers without weakening the paper's
// conservatism argument (see DESIGN.md).
//
// Determinism: hypotheses are enumerated up front in the exact order the
// historical serial loops visited them; workers claim indices from an
// atomic counter and write results into a per-index slot; the coordinator
// merges slots in index order. Verdicts (flag, witness list, counters)
// are therefore byte-identical to a serial run regardless of worker count
// or scheduling — TestParallelMatchesSerial pins this on ~200 random
// programs.

// ht is one head–tail hypothesis; t < 0 means a head-only hypothesis.
type ht struct{ h, t int }

// hypStream is a stream of hypotheses of one fixed arity, stored flat: a
// hypothesis is arity head(–tail) pairs that must jointly survive in a
// single strong component, and hypothesis i is
// pairs[i*arity : (i+1)*arity]. One backing array per stream keeps
// enumeration to a handful of allocations however long the stream is.
type hypStream struct {
	arity int
	pairs []ht
}

// streamBufs recycles stream backing arrays across sweeps, so repeated
// sweeps enumerate their streams without allocating.
var streamBufs sync.Pool

// newStream returns an empty stream of the given arity on a recycled
// backing array when one is free.
func newStream(arity int) hypStream {
	s := hypStream{arity: arity}
	if b, ok := streamBufs.Get().(*[]ht); ok {
		s.pairs = (*b)[:0]
	}
	return s
}

// release hands the stream's backing array back for reuse. The stream
// must not be read afterwards.
func (s *hypStream) release() {
	if cap(s.pairs) > 0 {
		b := s.pairs[:0]
		s.pairs = nil
		streamBufs.Put(&b)
	}
}

// len returns the number of hypotheses in the stream.
func (s *hypStream) len() int { return len(s.pairs) / s.arity }

// at returns hypothesis i.
func (s *hypStream) at(i int) []ht { return s.pairs[i*s.arity : (i+1)*s.arity] }

// workers returns the effective worker count for a stream of n
// hypotheses: the session parallelism when set, else GOMAXPROCS, never more than n.
func (a *Analyzer) workers(n int) int {
	w := a.parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// test runs one hypothesis on the probe and reports whether it survives:
// mark every pair, search through the first head's in-half, and require
// every hypothesized half-node in the component. On survival the
// component stays in the probe for witness.
func (p *probe) test(hyp []ht) bool {
	p.hypothesesRun++
	p.mark(hyp)
	c := p.a.CLG
	if p.sccThrough(c.In[hyp[0].h]) == nil {
		return false
	}
	for i, pr := range hyp {
		if i > 0 && !p.inComp(c.In[pr.h]) {
			return false
		}
		if pr.t >= 0 && !p.inComp(c.Out[pr.t]) {
			return false
		}
	}
	return true
}

// mark opens a fresh hypothesis on the probe and applies the markings of
// every pair in hyp.
func (p *probe) mark(hyp []ht) {
	p.begin()
	for _, pr := range hyp {
		if pr.t < 0 {
			p.markHead(pr.h)
		} else {
			p.markHeadTail(pr.h, pr.t)
		}
	}
}

// sweep tests every hypothesis and merges the results deterministically.
// Hypotheses and SCCRuns count the full stream (each hypothesis costs
// exactly one masked search, counted even when the start node is blocked,
// matching the historical serial loops). sweep consumes the stream.
func (a *Analyzer) sweep(algo Algorithm, hyps hypStream) Verdict {
	defer hyps.release()
	n := hyps.len()
	v := Verdict{Algorithm: algo, Hypotheses: n, SCCRuns: n}
	if n == 0 {
		return v
	}

	nw := a.workers(n)
	var ws witnessSet
	if nw == 1 {
		p := a.newProbe()
		for i := 0; i < n; i++ {
			if p.test(hyps.at(i)) {
				v.MayDeadlock = true
				ws.add(p.witness())
			}
		}
		p.flushTrace(a.trace)
		a.recordWorkers(1, int64(n))
		a.putProbe(p)
		v.Witnesses = ws.list
		return v
	}

	// Workers keep their witnesses in a local set, so results[i] is the
	// stored copy of hypothesis i's witness (nil when it died) and a
	// repeat costs no copy. The merge dedups by content in index order,
	// exactly as the serial loop does.
	results := make([][]int, n)
	probes := make([]*probe, nw)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			p := a.newProbe()
			probes[slot] = p
			var local witnessSet
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if p.test(hyps.at(i)) {
					results[i] = local.add(p.witness())
				}
			}
		}(w)
	}
	wg.Wait()
	var maxPerWorker int64
	for _, p := range probes {
		p.flushTrace(a.trace)
		if p.hypothesesRun > maxPerWorker {
			maxPerWorker = p.hypothesesRun
		}
		a.putProbe(p)
	}
	a.recordWorkers(nw, maxPerWorker)
	for _, w := range results {
		if w != nil {
			v.MayDeadlock = true
			ws.add(w)
		}
	}
	v.Witnesses = ws.list
	return v
}

// sweepAny is the early-cancelling variant for boolean-only callers: it
// reports whether any hypothesis survives, stopping all workers as soon
// as one does. Work counters and witness identity are intentionally not
// tracked (they would be scheduling-dependent); nothing is traced.
// sweepAny consumes the stream.
func (a *Analyzer) sweepAny(hyps hypStream) bool {
	defer hyps.release()
	n := hyps.len()
	if n == 0 {
		return false
	}
	nw := a.workers(n)
	if nw == 1 {
		p := a.newProbe()
		defer a.putProbe(p)
		for i := 0; i < n; i++ {
			if p.test(hyps.at(i)) {
				return true
			}
		}
		return false
	}
	var next atomic.Int64
	var found atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := a.newProbe()
			defer a.putProbe(p)
			for !found.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if p.test(hyps.at(i)) {
					found.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return found.Load()
}

// recordWorkers notes the sweep shape in the active trace span: how many
// workers ran and the largest number of hypotheses any one of them
// claimed (a load-balance indicator; equals the stream length when
// serial).
func (a *Analyzer) recordWorkers(n int, maxPerWorker int64) {
	if t := a.trace; t != nil {
		t.Add("workers", int64(n))
		t.Add("hypotheses_per_worker", maxPerWorker)
	}
}

// refinedHyps enumerates the single-head stream (the paper's main loop).
func (a *Analyzer) refinedHyps() hypStream {
	s := newStream(1)
	for _, h := range a.PossibleHeads() {
		s.pairs = append(s.pairs, ht{h, -1})
	}
	return s
}

// refinedPairHyps enumerates compatible head pairs in distinct tasks.
func (a *Analyzer) refinedPairHyps() hypStream {
	heads := a.PossibleHeads()
	s := newStream(2)
	for i, h1 := range heads {
		for _, h2 := range heads[i+1:] {
			if a.compatibleHeads(h1, h2) {
				s.pairs = append(s.pairs, ht{h1, -1}, ht{h2, -1})
			}
		}
	}
	return s
}

// headTailHyps enumerates (head, tail) pairs within one task: each
// possible head with each of its tail candidates.
func (a *Analyzer) headTailHyps() hypStream {
	s := newStream(1)
	for _, h := range a.PossibleHeads() {
		for _, t := range a.tailCandidates(h) {
			s.pairs = append(s.pairs, ht{h, t})
		}
	}
	return s
}

// headTailPairHyps enumerates pairs of head–tail hypotheses whose heads
// are compatible (distinct tasks, co-executable, unordered, no sync edge).
func (a *Analyzer) headTailPairHyps() hypStream {
	singles := a.headTailHyps()
	defer singles.release()
	s := newStream(2)
	for i, p1 := range singles.pairs {
		for _, p2 := range singles.pairs[i+1:] {
			if a.compatibleHeads(p1.h, p2.h) {
				s.pairs = append(s.pairs, p1, p2)
			}
		}
	}
	return s
}

// kPairHyps enumerates sets of k pairwise-compatible head–tail hypotheses
// from distinct tasks, in the order the historical recursive sweep tested
// them, stopping after limit sets. The boolean reports overflow: one more
// set existed beyond the limit, so the caller must not treat the stream
// as exhaustive.
func (a *Analyzer) kPairHyps(k, limit int) (hypStream, bool) {
	singles := a.headTailHyps()
	defer singles.release()
	s := newStream(k)
	overflow := false
	chosen := make([]ht, 0, k)
	var rec func(start int) bool
	rec = func(start int) bool {
		if len(chosen) == k {
			if s.len() >= limit {
				overflow = true
				return false
			}
			s.pairs = append(s.pairs, chosen...)
			return true
		}
		for i := start; i < len(singles.pairs); i++ {
			ok := true
			for _, p := range chosen {
				if !a.compatibleHeads(p.h, singles.pairs[i].h) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			chosen = append(chosen, singles.pairs[i])
			cont := rec(i + 1)
			chosen = chosen[:len(chosen)-1]
			if !cont {
				return false
			}
		}
		return true
	}
	rec(0)
	return s, overflow
}

// Certify reports whether algo certifies the program free of infinite
// wait anomalies (the negation of Verdict.MayDeadlock). For the
// hypothesis detectors it early-cancels: workers stop as soon as any
// hypothesis survives, so callers that only need the boolean skip the
// tail of the stream. Work counters are not traced on this path.
func (a *Analyzer) Certify(algo Algorithm) bool {
	switch algo {
	case AlgoRefined:
		return !a.sweepAny(a.refinedHyps())
	case AlgoRefinedPairs:
		return !a.sweepAny(a.refinedPairHyps())
	case AlgoRefinedHeadTail:
		return !a.sweepAny(a.headTailHyps())
	case AlgoRefinedHeadTailPairs:
		return !a.sweepAny(a.headTailPairHyps())
	default:
		return !a.Run(algo).MayDeadlock
	}
}
