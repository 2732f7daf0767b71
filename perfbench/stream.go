package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	siwa "repro"
	"repro/internal/lang"
	"repro/internal/service"
	"repro/internal/workload"
)

// rungs is the detector ladder in increasing precision and cost, by wire
// name.
var rungs = []string{"naive", "refined", "pairs", "head-tail", "ht-pairs"}

// coldRungs are the cheap rungs cold-mix asks for: its cost is meant to
// sit in the front end and graph construction, not in a detector sweep.
const coldRungs = 3

// family is one program generator from internal/workload with the sizes
// the benchmark draws from. The first hotSizes sizes have reports of at
// most ~21 KB on every rung (indented, as served), which keeps every
// hot-hits response under the 35 KB the hit path is meant to be measured
// at; the larger sizes (Barrier(4,2), CrossRing(8,2)) go to cold-mix and
// spectrum-ladder only.
type family struct {
	name     string
	sizes    [][]int
	hotSizes int
	build    func(size []int) *lang.Program
}

var families = []family{
	{"Pipeline", [][]int{{4, 2}, {5, 3}, {6, 3}}, 3,
		func(s []int) *lang.Program { return workload.Pipeline(s[0], s[1]) }},
	{"Ring", [][]int{{4}, {5}, {6}, {7}, {8}}, 5,
		func(s []int) *lang.Program { return workload.Ring(s[0]) }},
	{"RingBroken", [][]int{{4}, {5}, {6}, {7}, {8}}, 5,
		func(s []int) *lang.Program { return workload.RingBroken(s[0]) }},
	{"ClientServer", [][]int{{2}, {3}, {4}, {5}, {6}}, 5,
		func(s []int) *lang.Program { return workload.ClientServer(s[0]) }},
	{"Barrier", [][]int{{2, 2}, {3, 2}, {4, 2}}, 2,
		func(s []int) *lang.Program { return workload.Barrier(s[0], s[1]) }},
	{"CrossRing", [][]int{{4, 2}, {6, 2}, {8, 2}}, 2,
		func(s []int) *lang.Program { return workload.CrossRing(s[0], s[1]) }},
	{"ForkFan", [][]int{{2, 2}, {2, 3}, {3, 2}, {3, 3}}, 4,
		func(s []int) *lang.Program { return workload.ForkFan(s[0], s[1]) }},
	{"NestedLoops", [][]int{{2, 4}, {3, 4}}, 2,
		func(s []int) *lang.Program { return workload.NestedLoops(s[0], s[1]) }},
}

// verdictTable is the hand-written oracle: per family, the expected
// mayDeadlock answer of each rung (indexed like rungs) at every size the
// benchmark uses. It is per rung, not monotone: Pipeline and ForkFan are
// certified by pairs but not by head-tail, and Pipeline not by ht-pairs
// either. precheck confirms every row against the exact wave explorer and
// the library before any request is sent.
var verdictTable = map[string][5]bool{
	"Pipeline":     {true, true, false, true, true},
	"Ring":         {true, true, true, true, true},
	"RingBroken":   {false, false, false, false, false},
	"ClientServer": {false, false, false, false, false},
	"Barrier":      {true, true, true, true, true},
	"CrossRing":    {true, true, true, true, true},
	"ForkFan":      {true, true, false, true, false},
	"NestedLoops":  {true, true, true, true, true},
}

// Random programs have no table row: their answers are checked for
// soundness only, against the exact explorer's verdict on each program.
const randomPool = 24 // programs per random family and seed

// instance is one concrete program of a family.
type instance struct {
	family string
	label  string // e.g. "Pipeline(5,3)"
	text   string // MiniAda source without the salt comment
	hot    bool
	// table is the oracle row; nil for random programs.
	table *[5]bool
	// exactDeadlock is the exact explorer's verdict, filled by precheck
	// (table families) or at generation (random programs).
	exactDeadlock bool
	// prefix and suffix are the analyze request body around the salt, per
	// rung for the suffix: a request's body is prefix + salt + suffix.
	prefix []byte
	suffix [5][]byte
}

// saltMark stands for the salt while the body fragments are cut; it needs
// no JSON escaping and cannot occur in MiniAda source.
const saltMark = "@salt@"

func newInstance(family, label, text string) *instance {
	in := &instance{family: family, label: label, text: text}
	for r := range rungs {
		b, err := json.Marshal(service.AnalyzeRequest{
			Source:  text + "-- " + saltMark + "\n",
			Options: &service.WireOptions{Algorithm: rungs[r]},
		})
		if err != nil {
			panic(err) // marshalling a struct of strings cannot fail
		}
		i := bytes.Index(b, []byte(saltMark))
		in.prefix, in.suffix[r] = b[:i], b[i+len(saltMark):]
	}
	return in
}

// request is one prepared analyze call. Its body is assembled from the
// instance's prepared fragments and the salt, a copy of a few hundred
// bytes, so that a stream of a hundred thousand requests holds each
// program's text once instead of once per request.
type request struct {
	inst *instance
	rung int    // index into rungs
	salt string // text of the comment line that makes the source distinct
}

// appendBody appends the request's JSON body to dst.
func (r *request) appendBody(dst []byte) []byte {
	dst = append(dst, r.inst.prefix...)
	dst = append(dst, r.salt...)
	return append(dst, r.inst.suffix[r.rung]...)
}

// source is the program text the request carries.
func (r *request) source() string { return r.inst.text + "-- " + r.salt + "\n" }

// options is the library view of the request, as the replica resolves it.
func (r *request) options() siwa.Options {
	a, _ := siwa.AlgorithmByName(rungs[r.rung])
	return siwa.Options{Algorithm: a}
}

// variant returns the request's twin in lineage l: the same program, rung
// and work, under a different salt, so it misses every cache the original
// has filled. The traced run sends each lineage down a different path so
// that every path sees the cache state the original request saw.
func (r *request) variant(l int) *request {
	return &request{r.inst, r.rung, fmt.Sprintf("%s lineage %d", r.salt, l)}
}

// job is what one client does before taking the next job: a single request,
// or for spectrum-ladder one source climbing the rungs.
type job []*request

// streams is everything a workload sends, generated from the seed.
type streams struct {
	// warm is sent once in setup: the hot set, or the prefill traffic that
	// brings both caches to steady state (sent in chunks until they are).
	warm []job
	// timed is the timed phase's job sequence. Hot-hits wraps around it;
	// the other workloads fail the run if it runs out.
	timed []job
	wrap  bool
	// fresh marks workloads whose every job is a new source, so requests
	// change cache state: setup prefills until steady, and the traced run
	// sends each path its own lineage of variants.
	fresh bool
}

// Stream sizes. Cold-mix and spectrum-ladder need every timed request to
// be fresh, so their timed streams hold three to four times the highest
// throughput measured on a 2-CPU machine (cold-mix ~3100 requests/s,
// spectrum-ladder ~750 jobs/s), leaving room for a faster program; the
// prefill streams hold about twice the distinct sources it takes to fill
// two 64 MiB stage caches.
const (
	hotSet          = 256
	hotTimedJobs    = 1 << 16
	coldPrefillJobs = 20000
	coldJobsPerSec  = 10000
	ladderPrefill   = 20000
	ladderJobsPerS  = 3000
)

var workloads = []string{"hot-hits", "cold-mix", "spectrum-ladder"}

// catalog holds every program instance a run may send.
type catalog struct {
	table  []*instance // table families, all sizes
	hot    []*instance
	random []*instance // both random families
}

func newRNG(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, purpose)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// buildCatalog instantiates the table families and generates the seed's
// random programs. Random programs whose exact exploration is truncated
// are skipped, so every soundness check has a definite reference.
func buildCatalog(seed int64) (*catalog, error) {
	c := &catalog{}
	for _, f := range families {
		row := verdictTable[f.name]
		for i, s := range f.sizes {
			label := f.name + "(" + strings.ReplaceAll(strings.Trim(fmt.Sprint(s), "[]"), " ", ",") + ")"
			inst := newInstance(f.name, label, f.build(s).String())
			inst.hot, inst.table = i < f.hotSizes, &row
			c.table = append(c.table, inst)
			if inst.hot {
				c.hot = append(c.hot, inst)
			}
		}
	}
	rng := newRNG(seed, "random")
	for _, loops := range []bool{false, true} {
		wc := workload.DefaultConfig()
		name := "Random"
		if loops {
			wc.LoopProb = 0.2
			name = "RandomLoops"
		}
		for n, tries := 0, 0; n < randomPool; tries++ {
			if tries > 50*randomPool {
				return nil, fmt.Errorf("%s: too few random programs with a complete exact exploration", name)
			}
			text := workload.Random(rng, wc).String()
			rep, err := siwa.AnalyzeSource(text, siwa.Options{Exact: true})
			if err != nil {
				return nil, fmt.Errorf("%s program %d: %w", name, tries, err)
			}
			if rep.Exact.Truncated {
				continue
			}
			inst := newInstance(name, fmt.Sprintf("%s#%d", name, n), text)
			inst.exactDeadlock = rep.Exact.Deadlock
			c.random = append(c.random, inst)
			n++
		}
	}
	return c, nil
}

// pickTable draws a family uniformly, then one of its sizes.
func pickTable(rng *rand.Rand, insts []*instance) *instance {
	f := families[rng.Intn(len(families))].name
	var of []*instance
	for _, in := range insts {
		if in.family == f {
			of = append(of, in)
		}
	}
	return of[rng.Intn(len(of))]
}

// ladderJob is one source climbing the rungs up to the first rung the
// table certifies deadlock-free.
func ladderJob(inst *instance, salt string) job {
	var j job
	for r := range rungs {
		j = append(j, &request{inst, r, salt})
		if !inst.table[r] {
			break
		}
	}
	return j
}

// generate builds a workload's streams from the seed. The same seed gives
// byte-identical bodies in the same order.
func generate(c *catalog, name string, seed int64, seconds int) (*streams, error) {
	s := &streams{}
	rng := newRNG(seed, name)
	switch name {
	case "hot-hits":
		// The hot set is stratified, not drawn: every family gets the same
		// share, spread evenly over its sizes and rungs, so that the mix of
		// response sizes, and with it the cost of a hit, is the same for
		// every seed. The seed picks the salts and the request order.
		var hot []*request
		for _, f := range families {
			var combos [][2]int // (hot instance index, rung)
			for i, in := range c.hot {
				if in.family == f.name {
					for r := range rungs {
						combos = append(combos, [2]int{i, r})
					}
				}
			}
			rng.Shuffle(len(combos), func(i, j int) { combos[i], combos[j] = combos[j], combos[i] })
			for n := 0; n < hotSet/len(families); n++ {
				cb := combos[n%len(combos)]
				hot = append(hot, &request{c.hot[cb[0]], cb[1], fmt.Sprintf("hot %d", len(hot))})
			}
		}
		for _, r := range hot {
			s.warm = append(s.warm, job{r})
		}
		s.timed = make([]job, hotTimedJobs)
		for i := range s.timed {
			s.timed[i] = job{hot[rng.Intn(hotSet)]}
		}
		s.wrap = true
	case "cold-mix":
		s.fresh = true
		pick := func(salt string) job {
			var inst *instance
			// Ten families: the eight table families and two random ones.
			if k := rng.Intn(len(families) + 2); k < len(families) {
				inst = pickTable(rng, c.table)
			} else {
				inst = c.random[(k-len(families))*randomPool+rng.Intn(randomPool)]
			}
			return job{&request{inst, rng.Intn(coldRungs), salt}}
		}
		for i := 0; i < coldPrefillJobs; i++ {
			s.warm = append(s.warm, pick(fmt.Sprintf("prefill %d", i)))
		}
		for i := 0; i < coldJobsPerSec*seconds; i++ {
			s.timed = append(s.timed, pick(fmt.Sprintf("cold %d", i)))
		}
	case "spectrum-ladder":
		s.fresh = true
		// Prefill asks only the first rung of each source: that fills both
		// caches to the same steady state in a third of the time a full
		// climb takes, and the timed phase turns the stage cache over to
		// ladder entries within its first seconds.
		for i := 0; i < ladderPrefill; i++ {
			s.warm = append(s.warm, job{&request{pickTable(rng, c.table), 0, fmt.Sprintf("prefill %d", i)}})
		}
		for i := 0; i < ladderJobsPerS*seconds; i++ {
			s.timed = append(s.timed, ladderJob(pickTable(rng, c.table), fmt.Sprintf("ladder %d", i)))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, workloads)
	}
	return s, nil
}
