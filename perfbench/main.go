// Command perfbench is the repository's end-to-end benchmark. One process
// starts the cluster gateway in front of two analysis replicas on loopback
// listeners and drives real HTTP requests through the gateway in a closed
// loop of two clients. Every request is generated from --seed before
// setup, and every response is checked against a verdict oracle (verdict
// table plus exact wave explorer).
//
// With --trace 0 it reports the end-to-end metrics: throughput_ops,
// latency_p50_ms, latency_p95_ms, success_ratio, heap_live_mb and setup_s.
// With --trace 1 it replays the stream sequentially, times each layer's
// public functions around the request, writes the spans to a file and
// reports per-layer self times computed from that file. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload cold-mix --seed 3 --seconds 10 --trace 0
//
// README.md maps each per-layer metric to the end-to-end metric and
// workload it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's settings.
type bench struct {
	workload string
	seed     int64
	seconds  int
	// setups is how many times setup runs; setup_s is their median.
	setups int
	stack  stackConfig
	// traceJobs is how many jobs of the stream the traced run replays.
	traceJobs int
	traceDir  string
}

// Setup repetitions and traced-run lengths per workload. Hot-hits sets up
// in a fraction of a second, so it repeats more to steady its median;
// the traced lengths keep each traced run to a few seconds on 2 CPUs.
var (
	setupsPerWorkload    = map[string]int{"hot-hits": 15, "cold-mix": 3, "spectrum-ladder": 3}
	traceJobsPerWorkload = map[string]int{"hot-hits": 3000, "cold-mix": 800, "spectrum-ladder": 300}
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hot-hits, cold-mix or spectrum-ladder")
	seed := fs.Int64("seed", 1, "seed of the generated request stream")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	traceMode := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 runs the traced replay and reports per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	setups, ok := setupsPerWorkload[*name]
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %v), --seconds >= 1 and --trace 0|1\n", workloads)
		return 2
	}
	b := &bench{
		workload: *name, seed: *seed, seconds: *seconds, setups: setups,
		traceJobs: traceJobsPerWorkload[*name], traceDir: *traceDir,
	}
	var out *output
	var err error
	if *traceMode == 1 {
		out, err = b.traced(stderr)
	} else {
		out, err = b.endToEnd(stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.workload, err)
		return 1
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stderr, "%s/%s = %.6g %s\n", b.workload, n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !out.Correct {
		return 1
	}
	return 0
}

// prepare generates the run's inputs and checks the oracle. It runs before
// any setup is timed.
func (b *bench) prepare() (*streams, error) {
	c, err := buildCatalog(b.seed)
	if err != nil {
		return nil, err
	}
	if err := precheck(c); err != nil {
		return nil, err
	}
	return generate(c, b.workload, b.seed, b.seconds)
}

// liveHeap forces collections and returns the bytes of heap still in use.
// The second collection empties the sync.Pool victim caches the first one
// leaves behind.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// setUp builds the stack and warms it to steady state b.setups times,
// keeping the last one. It returns the stack, each setup's seconds, and
// the live heap measured before the first stack was built (a stack closed
// moments ago may still be reachable from its exiting goroutines, so the
// reading is not retaken between setups).
func (b *bench) setUp(s *streams) (*stack, []float64, float64, error) {
	var (
		st    *stack
		times []float64
	)
	heap0 := liveHeap()
	for i := 0; i < b.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, nil, 0, err
			}
			// Free the closed stack before the next one fills its caches,
			// so that no setup pays for collecting its predecessor.
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if st, err = startStack(b.stack); err != nil {
			return nil, nil, 0, err
		}
		if err := st.warm(s); err != nil {
			st.close()
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return st, times, heap0, nil
}

// job returns the k-th timed job.
func (s *streams) job(k int) (job, bool) {
	if k >= len(s.timed) {
		if !s.wrap {
			return nil, false
		}
		k %= len(s.timed)
	}
	return s.timed[k], true
}

func (b *bench) endToEnd(log io.Writer) (*output, error) {
	s, err := b.prepare()
	if err != nil {
		return nil, err
	}
	st, setups, heap0, err := b.setUp(s)
	if err != nil {
		return nil, err
	}
	defer st.close()
	// Steady-state guards: fresh-source workloads start with full result
	// caches and evicting stage caches; hot-hits must hit on every request.
	if s.fresh && !st.steady() {
		return nil, fmt.Errorf("caches not at steady state before timing:%s", st.describeCaches())
	}
	before := st.totals()
	runtime.GC()
	res := closedLoop(st, s.job, time.Now().Add(time.Duration(b.seconds)*time.Second))
	after := st.totals()
	if res.unsound != nil {
		return nil, res.unsound
	}
	if res.exhausted {
		return nil, fmt.Errorf("timed stream of %d jobs ran out: enlarge it", len(s.timed))
	}
	if !s.fresh && after.resultMisses != before.resultMisses {
		return nil, fmt.Errorf("result-cache hit ratio fell below 1.0 in the timed phase (%d misses)", after.resultMisses-before.resultMisses)
	}
	if len(res.lat) == 0 {
		return nil, fmt.Errorf("no request completed: %v", res.examples)
	}
	heap := liveHeap() - heap0
	// The stream is in the baseline reading; keep it reachable for this one
	// too, or the difference would subtract it.
	runtime.KeepAlive(s)
	if err := st.close(); err != nil {
		return nil, err
	}
	sortDurations(res.lat)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	fmt.Fprintf(log, "%s: %d requests in %.3fs by %d clients, %d failed, %d wrong; latency percentiles over %d samples; setup_s samples %v\n",
		b.workload, res.attempted, res.wall.Seconds(), clients, res.failed, res.wrong, len(res.lat), setups)
	for _, e := range res.examples {
		fmt.Fprintf(log, "  %v\n", e)
	}
	return &output{
		Correct:   res.wrong == 0,
		Attempted: res.attempted,
		Failed:    res.attempted - res.ok,
		Metrics: map[string]metric{
			"throughput_ops": {float64(len(res.lat)) / res.wall.Seconds(), "ops/s"},
			"latency_p50_ms": {ms(percentile(res.lat, 50)), "ms"},
			"latency_p95_ms": {ms(percentile(res.lat, 95)), "ms"},
			"success_ratio":  {float64(res.ok) / float64(res.attempted), "ratio"},
			"heap_live_mb":   {heap / (1 << 20), "MB"},
			"setup_s":        {median(setups), "s"},
		},
	}, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
