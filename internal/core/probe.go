package core

import (
	"repro/internal/obs"
)

// probe is the per-worker mutable state of the hypothesis engine: the
// epoch-stamped CLG markings for the hypothesis under test, the Tarjan
// scratch of the masked strong-component search, and the witness
// deduplication buffer. Factoring it out of Analyzer is what makes the
// Analyzer itself read-only after construction — a parallel sweep hands
// each worker its own probe and the workers share nothing but the
// analyzer's immutable tables.
//
// A probe is single-goroutine state; obtain one per worker via
// Analyzer.newProbe and return it with Analyzer.putProbe when done.
type probe struct {
	a *Analyzer

	// Hypothesis markings (valid while == epoch).
	epoch       int
	blocked     []int // DO-NOT-ENTER
	noSyncInto  []int
	noSyncOutOf []int

	// Masked-SCC scratch.
	sccEpoch int
	visited  []int // Tarjan visitation stamp
	index    []int
	low      []int
	onStack  []bool
	compMark []int // == sccEpoch: member of the last search's component
	stack    []int
	frames   []sccFrame
	compBuf  []int // component members of the last search (reused)

	// Witness mapping scratch (sync-graph node ids).
	witEpoch int
	witSeen  []int
	witBuf   []int

	// Marking-rule work counters, accumulated locally and folded into the
	// coordinator's trace span after a sweep (sums are order-independent,
	// so parallel runs report the same totals as serial ones).
	prunedSeq     int64
	prunedCoacc   int64
	prunedNcx     int64
	hypothesesRun int64
}

// sccFrame is one node of the iterative Tarjan search: the node, the
// next edge of G.Succ(v) to scan, the index where its sync edges begin,
// and the end of its usable edges (SyncStart when sync traversal out of
// v is barred). Frames hold no pointers, so pushing one costs no GC
// write barrier.
type sccFrame struct {
	v, ei, sync, end int
}

// newProbe returns a probe sized for the analyzer's CLG, drawing from the
// analyzer's pool so repeated sweeps reuse scratch memory.
func (a *Analyzer) newProbe() *probe {
	if p, ok := a.probes.Get().(*probe); ok && p != nil {
		p.prunedSeq, p.prunedCoacc, p.prunedNcx, p.hypothesesRun = 0, 0, 0, 0
		return p
	}
	n := a.CLG.N()
	return &probe{
		a:           a,
		blocked:     make([]int, n),
		noSyncInto:  make([]int, n),
		noSyncOutOf: make([]int, n),
		visited:     make([]int, n),
		index:       make([]int, n),
		low:         make([]int, n),
		onStack:     make([]bool, n),
		compMark:    make([]int, n),
		witSeen:     make([]int, a.SG.N()),
	}
}

// putProbe returns a probe to the analyzer's pool.
func (a *Analyzer) putProbe(p *probe) { a.probes.Put(p) }

// flushTrace folds the probe's accumulated marking counters into span.
// Only the sweep coordinator may call it (obs.Span is not concurrent-safe).
func (p *probe) flushTrace(span *obs.Span) {
	if span == nil {
		return
	}
	span.Add("pruned_sequenceable", p.prunedSeq)
	span.Add("pruned_coaccept", p.prunedCoacc)
	span.Add("pruned_notcoexec", p.prunedNcx)
}

// begin opens a fresh hypothesis: all previous markings expire.
func (p *probe) begin() { p.epoch++ }

func (p *probe) block(v int)          { p.blocked[v] = p.epoch }
func (p *probe) blockSyncInto(v int)  { p.noSyncInto[v] = p.epoch }
func (p *probe) blockSyncOutOf(v int) { p.noSyncOutOf[v] = p.epoch }
func (p *probe) isBlocked(v int) bool { return p.blocked[v] == p.epoch }
func (p *probe) noSyncIn(v int) bool  { return p.noSyncInto[v] == p.epoch }
func (p *probe) noSyncOut(v int) bool { return p.noSyncOutOf[v] == p.epoch }

// markHead applies the single-head markings for hypothesized head h:
//   - SEQUENCEABLE[h]: cannot be heads of the same cycle (constraint 3a),
//     so sync edges into k_i are blocked. Blocking k's outgoing sync edge
//     too, as the paper's main-loop text literally reads, would also
//     forbid k as a *tail* and is demonstrably unsound (see DESIGN.md);
//     the paper's own head-tail extension marks only r_i, which we follow.
//   - COACCEPT[h]: same-type accepts cannot carry the cycle out of h's
//     task without forcing a constraint-2 violation (Lemma 2), so both
//     halves lose sync traversal.
//   - NOT-COEXEC[h]: cannot appear in any run with h (constraint 3b), so
//     the nodes are removed outright.
func (p *probe) markHead(h int) {
	a := p.a
	c := a.CLG
	seq := a.seqSets[h]
	for _, k := range seq {
		p.blockSyncInto(c.In[k])
	}
	coacc := a.Ord.CoAccept[h]
	for _, k := range coacc {
		p.blockSyncInto(c.In[k])
		p.blockSyncOutOf(c.Out[k])
	}
	ncx := a.ncxSets[h]
	for _, k := range ncx {
		p.block(c.In[k])
		p.block(c.Out[k])
	}
	p.prunedSeq += int64(len(seq))
	p.prunedCoacc += int64(len(coacc))
	p.prunedNcx += int64(len(ncx))
}

// markHeadTail applies the head-tail variant markings for (h, t):
// NOT-COEXEC of either hypothesis is removed; SEQUENCEABLE[h] lose head
// status; COACCEPT needs no marking because the tail is fixed.
func (p *probe) markHeadTail(h, t int) {
	a := p.a
	c := a.CLG
	seq := a.seqSets[h]
	for _, k := range seq {
		p.blockSyncInto(c.In[k])
	}
	ncxH := a.ncxSets[h]
	for _, k := range ncxH {
		p.block(c.In[k])
		p.block(c.Out[k])
	}
	ncxT := a.ncxSets[t]
	for _, k := range ncxT {
		p.block(c.In[k])
		p.block(c.Out[k])
	}
	p.prunedSeq += int64(len(seq))
	p.prunedNcx += int64(len(ncxH) + len(ncxT))
}

// inComp reports whether v belongs to the component of the last search.
func (p *probe) inComp(v int) bool { return p.compMark[v] == p.sccEpoch }

// sccThrough runs a masked strong-component search and returns the set of
// CLG nodes in the component containing start, when that component is
// nontrivial (contains a cycle). Nil means start lies on no cycle under
// the current markings. The search covers only nodes reachable from
// start and reuses the probe's epoch-stamped scratch; the returned slice
// is probe-owned, in no particular order, and valid only until the
// probe's next search. inComp answers membership in it in constant time.
//
// An edge u->w is usable unless w is blocked or the edge is a sync edge
// (index at or past CLG.SyncStart(u)) with sync traversal barred out of
// u or into w. The out-of-u test is per source, so it is hoisted: a frame
// whose node lost sync traversal scans only the edges before SyncStart.
func (p *probe) sccThrough(start int) []int {
	if p.isBlocked(start) {
		return nil
	}
	c := p.a.CLG
	g := c.G
	mark := p.epoch
	blocked, noSyncInto := p.blocked, p.noSyncInto
	visited, index, low, onStack := p.visited, p.index, p.low, p.onStack
	p.sccEpoch++
	epoch := p.sccEpoch
	members := p.compBuf[:0]
	idx := 0

	push := func(v int) {
		visited[v] = epoch
		index[v], low[v] = idx, idx
		idx++
		onStack[v] = true
		p.stack = append(p.stack, v)
		sync, end := c.SyncStart(v), len(g.Succ(v))
		if p.noSyncOutOf[v] == mark {
			end = sync
		}
		p.frames = append(p.frames, sccFrame{v: v, sync: sync, end: end})
	}

	p.stack, p.frames = p.stack[:0], p.frames[:0]
	push(start)
	for len(p.frames) > 0 {
		f := &p.frames[len(p.frames)-1]
		v := f.v
		succ := g.Succ(v)
		descended := false
		for f.ei < f.end {
			i := f.ei
			w := succ[i]
			f.ei++
			if blocked[w] == mark || (i >= f.sync && noSyncInto[w] == mark) {
				continue
			}
			if visited[w] != epoch {
				push(w) // invalidates f
				descended = true
				break
			}
			if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if descended {
			continue
		}
		if low[v] == index[v] {
			// v roots a component. start has index 0, so its component
			// is the last one popped, and the only one kept.
			for {
				w := p.stack[len(p.stack)-1]
				p.stack = p.stack[:len(p.stack)-1]
				onStack[w] = false
				if v == start {
					p.compMark[w] = epoch
					members = append(members, w)
				}
				if w == v {
					break
				}
			}
		}
		p.frames = p.frames[:len(p.frames)-1]
		if len(p.frames) > 0 {
			pv := p.frames[len(p.frames)-1].v
			if low[v] < low[pv] {
				low[pv] = low[v]
			}
		}
	}
	p.compBuf = members
	if len(members) > 1 {
		return members
	}
	// Single-node component: nontrivial only with a usable self-loop
	// (the CLG construction never creates one, but stay defensive).
	for i, w := range g.Succ(start) {
		if w == start && (i < c.SyncStart(start) || !p.noSyncOut(start) && !p.noSyncIn(start)) {
			return members
		}
	}
	return nil
}

// witness maps the last search's component back to deduplicated, sorted
// sync-graph node ids for reporting. The result is probe-owned scratch,
// valid until the next call: callers keep it through witnessSet.add,
// which copies only witnesses not seen before. Members are stamped in an
// epoch buffer indexed by sync-graph node, and a scan of that buffer
// emits them in ascending order: linear, with no map and no sort.
func (p *probe) witness() []int {
	p.witEpoch++
	orig := p.a.CLG.Orig
	for _, v := range p.compBuf {
		p.witSeen[orig[v]] = p.witEpoch
	}
	out := p.witBuf[:0]
	for o, stamp := range p.witSeen {
		if stamp == p.witEpoch {
			out = append(out, o)
		}
	}
	p.witBuf = out
	return out
}
