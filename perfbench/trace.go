package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	siwa "repro"
	"repro/internal/cfg"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sg"
	"repro/internal/stall"
)

// span is one timed call in the traced run. Spans of one request share
// Req; a span's children are sibling measurements of the layers below it,
// so its self time is its duration minus its children's durations.
type span struct {
	Req    int              `json:"req"`
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0 for a root
	Name   string           `json:"name"`
	Start  int64            `json:"start"` // ns since the run's epoch
	End    int64            `json:"end"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) add(req, parent int, name string, start, end time.Time, counts map[string]int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Req: req, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Counts: counts,
	})
	return id
}

// layerMetrics lists the per-layer metrics in report order with units.
var layerMetrics = []struct{ name, unit string }{
	{"cluster.self_ms", "ms"},
	{"service.wire_ms", "ms"},
	{"service.handler_ms", "ms"},
	{"service.self_ms", "ms"},
	{"service.key_us", "us"},
	{"service.result_hit_ratio", "ratio"},
	{"service.response_kb", "KB"},
	{"siwa.analyze_us", "us"},
	{"memo.self_us", "us"},
	{"memo.hit_ratio", "ratio"},
	{"memo.evictions_per_op", "count/op"},
	{"memo.mb", "MB"},
	{"lang.parse_us", "us"},
	{"cfg.unroll_us", "us"},
	{"sg.build_us", "us"},
	{"core.analyzer_us", "us"},
	{"core.detect_us", "us"},
	{"stall.check_us", "us"},
	{"siwa.project_us", "us"},
	{"sg.rendezvous_per_op", "count/op"},
	{"sg.sync_edges_per_op", "count/op"},
	{"core.heads_per_op", "count/op"},
	{"go.alloc_kb_per_op", "KB/op"},
	{"go.gc_cpu_share", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// traced is the per-layer run. After the usual setup it replays the first
// traceJobs jobs of the stream twice with one client: first untraced
// through the gateway (the reference for trace.overhead_share and the Go
// runtime counters), then traced, where each request is timed through the
// gateway, straight to its owner replica, in process through the
// replica's handler, and through each library stage it made run. The
// spans go to a file, and every metric is computed from that file.
func (b *bench) traced(log io.Writer) (*output, error) {
	s, err := b.prepare()
	if err != nil {
		return nil, err
	}
	st, err := startStack(b.stack)
	if err != nil {
		return nil, err
	}
	defer st.close()
	if err := st.warm(s); err != nil {
		return nil, err
	}
	jobs := s.timed[:min(b.traceJobs, len(s.timed))]
	// Lineage 0 is the stream itself (untraced pass); lineages 1-3 are the
	// traced pass's gateway, direct and in-process paths.
	lineage := func(r *request, l int) *request {
		if !s.fresh || l == 0 {
			return r // a hot request is a hit on every path
		}
		return r.variant(l)
	}
	type paths struct{ gw, direct, local *request }
	variants := make([][]paths, len(jobs))
	for k, j := range jobs {
		for _, r := range j {
			variants[k] = append(variants[k], paths{lineage(r, 1), lineage(r, 2), lineage(r, 3)})
		}
	}
	mirror, err := b.mirrorCache(s)
	if err != nil {
		return nil, err
	}

	t := &tracer{epoch: time.Now()}
	var buf bytes.Buffer
	runtime.GC()
	rt0 := readRuntime()
	var body []byte
	for k, j := range jobs {
		for _, r := range j {
			body = r.appendBody(body[:0])
			t0 := time.Now()
			status, err := st.post(st.gwURL, body, &buf)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			may, err := checkResponse(r, status, buf.Bytes())
			if err != nil {
				return nil, err
			}
			t.add(k, 0, "gateway.untraced", t0, t1, nil)
			if !may {
				break
			}
		}
	}
	runtime.GC()
	rt1 := readRuntime()
	runStart := time.Now()

	attempted := 0
	for k := range jobs {
		for _, v := range variants[k] {
			attempted++
			may, err := b.traceRequest(t, st, mirror, k, v.gw, v.direct, v.local, &buf)
			if err != nil {
				return nil, err
			}
			if !may {
				break
			}
		}
	}
	var stageBytes int64
	for _, r := range st.replicas {
		stageBytes += r.StageCacheStats().Bytes
	}
	t.add(-1, 0, "run", runStart, time.Now(), map[string]int64{
		"alloc_bytes": int64(rt1.allocBytes - rt0.allocBytes),
		"gc_cpu_ns":   int64((rt1.gcCPU - rt0.gcCPU) * 1e9),
		"busy_cpu_ns": int64((rt1.busyCPU - rt0.busyCPU) * 1e9),
		"stage_bytes": stageBytes,
	})
	if err := st.close(); err != nil {
		return nil, err
	}

	path := filepath.Join(b.traceDir, fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
	if err := writeSpans(path, t.spans); err != nil {
		return nil, err
	}
	spans, err := readSpans(path)
	if err != nil {
		return nil, err
	}
	m, err := perLayer(spans)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%s: traced %d requests of %d jobs; spans in %s\n", b.workload, attempted, len(jobs), path)
	return &output{Correct: true, Attempted: attempted, Metrics: m}, nil
}

// mirrorCache returns the benchmark-owned stage cache that siwa.analyze_us
// is measured against, in the state a replica's cache is in: nil for
// hot-hits (whose requests never reach the pipeline), otherwise a cache
// of the replicas' budget filled with prefill sources until it evicts.
func (b *bench) mirrorCache(s *streams) (*siwa.StageCache, error) {
	if !s.fresh {
		return nil, nil
	}
	mb := service.Config{StageCacheMB: b.stack.stageCacheMB}.Normalize().StageCacheMB
	mirror := siwa.NewStageCache(int64(mb) << 20)
	for _, j := range s.warm {
		if mirror.Stats().Evictions > 0 {
			return mirror, nil
		}
		for _, r := range j {
			if _, err := siwa.AnalyzeSource(r.source(), b.analyzeOptions(r, mirror)); err != nil {
				return nil, fmt.Errorf("mirror prefill: %w", err)
			}
		}
	}
	return nil, errors.New("mirror prefill: prefill stream exhausted before the stage cache evicted")
}

// analyzeOptions are the options a replica runs r's analysis with.
func (b *bench) analyzeOptions(r *request, mc *siwa.StageCache) siwa.Options {
	opt := r.options()
	opt.Limits = siwa.DefaultLimits()
	opt.Parallelism = 1
	opt.StageCache = mc
	return opt
}

// traceRequest times one request down every layer. gw, direct and local
// are the same request in the lineages the gateway, direct and in-process
// paths use. It returns the served mayDeadlock answer.
func (b *bench) traceRequest(t *tracer, st *stack, mirror *siwa.StageCache, k int, gw, direct, local *request, buf *bytes.Buffer) (bool, error) {
	gwBody, directBody, localBody := gw.appendBody(nil), direct.appendBody(nil), local.appendBody(nil)
	// Gateway round trip, with the cache counters it moved.
	c0 := st.totals()
	t0 := time.Now()
	status, err := st.post(st.gwURL, gwBody, buf)
	t1 := time.Now()
	if err != nil {
		return false, err
	}
	c1 := st.totals()
	may, err := checkResponse(gw, status, buf.Bytes())
	if err != nil {
		return false, err
	}
	hit := c1.resultHits > c0.resultHits
	gid := t.add(k, 0, "gateway", t0, t1, map[string]int64{
		"result_hits":     int64(c1.resultHits - c0.resultHits),
		"result_misses":   int64(c1.resultMisses - c0.resultMisses),
		"stage_hits":      int64(c1.stageHits - c0.stageHits),
		"stage_misses":    int64(c1.stageMisses - c0.stageMisses),
		"stage_evictions": int64(c1.stageEvictions - c0.stageEvictions),
		"response_bytes":  int64(responseBytes(buf.Bytes())),
	})

	// Straight to the owner replica over its own connection.
	owner := st.gw.Ring().Owner(cluster.DigestOf(direct.source()))
	t0 = time.Now()
	status, err = st.post(st.urls[owner], directBody, buf)
	t1 = time.Now()
	if err != nil {
		return false, err
	}
	if _, err := checkResponse(direct, status, buf.Bytes()); err != nil {
		return false, fmt.Errorf("direct: %w", err)
	}
	did := t.add(k, gid, "direct", t0, t1, nil)

	// The replica's handler in process: no socket, no HTTP parsing.
	srv := st.replicas[st.gw.Ring().Owner(cluster.DigestOf(local.source()))]
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(localBody))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	t0 = time.Now()
	srv.Handler().ServeHTTP(rec, req)
	t1 = time.Now()
	if _, err := checkResponse(local, rec.Code, rec.Body.Bytes()); err != nil {
		return false, fmt.Errorf("in-process: %w", err)
	}
	hid := t.add(k, did, "handler", t0, t1, nil)

	src, opt := gw.source(), b.analyzeOptions(gw, mirror)
	t0 = time.Now()
	keySink = service.Key(src, opt)
	t.add(k, hid, "key", t0, time.Now(), nil)
	if hit {
		return may, nil
	}

	// A miss runs the pipeline: time it against the mirror cache, then
	// each stage that the cache state made run, then the projection.
	m0 := mirror.Stats()
	t0 = time.Now()
	rep, err := siwa.AnalyzeSource(src, opt)
	t1 = time.Now()
	if err != nil {
		return false, err
	}
	aid := t.add(k, hid, "analyze", t0, t1, nil)
	if err := timeStages(t, k, aid, src, opt, rep, mirror.Stats().Builds-m0.Builds); err != nil {
		return false, err
	}
	t0 = time.Now()
	jr := rep.JSONReport()
	jr.Trace = nil
	if _, err := json.Marshal(jr); err != nil {
		return false, err
	}
	t.add(k, hid, "project", t0, time.Now(), nil)
	return may, nil
}

// Results of timed calls are stored here so that the compiler cannot
// drop a call whose result is otherwise unused.
var (
	keySink     service.CacheKey
	verdictSink core.Verdict
	stallSink   *stall.Report
)

// Stage-cache builds of one analysis: a cold source builds its front end,
// graph, verdict and stall entries; a warm one only its new verdict.
const (
	buildsCold   = 4
	buildsDetect = 1
)

// timeStages re-runs, outside any cache, each stage the mirror analysis
// built, and records its duration and work counts under the analyze span.
func timeStages(t *tracer, k, parent int, src string, opt siwa.Options, rep *siwa.Report, builds uint64) error {
	switch builds {
	case 0:
		return nil
	case buildsDetect:
		t0 := time.Now()
		verdictSink = rep.Analyzer.Run(opt.Algorithm)
		t.add(k, parent, "core.detect", t0, time.Now(), map[string]int64{"heads": int64(len(rep.Analyzer.PossibleHeads()))})
		return nil
	case buildsCold:
	default:
		return fmt.Errorf("analysis built %d stage-cache entries; expected 0, %d or %d", builds, buildsDetect, buildsCold)
	}
	// The front end is what the library's parse stage runs: Parse,
	// Validate, and InlineCalls when the program has procedures.
	t0 := time.Now()
	prog, err := siwa.Parse(src)
	if err == nil {
		err = prog.Validate()
	}
	inlined := prog
	if err == nil && (len(prog.Procs) > 0 || prog.HasCalls()) {
		inlined = prog.InlineCalls()
	}
	t.add(k, parent, "parse", t0, time.Now(), nil)
	if err != nil {
		return err
	}
	unrolled := inlined
	if cfg.HasLoops(inlined) {
		t0 = time.Now()
		unrolled, err = cfg.UnrollBounded(inlined, opt.Limits.MaxUnrolledNodes)
		t.add(k, parent, "unroll", t0, time.Now(), nil)
		if err != nil {
			return err
		}
	}
	t0 = time.Now()
	g, err := sg.FromProgram(unrolled)
	t1 := time.Now()
	if err != nil {
		return err
	}
	t.add(k, parent, "sg.build", t0, t1, map[string]int64{
		"rendezvous": int64(g.NumRendezvous()), "sync_edges": int64(g.NumSyncEdges()),
	})
	t0 = time.Now()
	an := core.NewAnalyzer(g)
	t.add(k, parent, "core.analyzer", t0, time.Now(), nil)
	an = an.Session(opt.Parallelism, nil)
	t0 = time.Now()
	verdictSink = an.Run(opt.Algorithm)
	t.add(k, parent, "core.detect", t0, time.Now(), map[string]int64{"heads": int64(len(an.PossibleHeads()))})
	t0 = time.Now()
	stallSink = stall.CheckAllLinearizations(inlined)
	t.add(k, parent, "stall.check", t0, time.Now(), nil)
	return nil
}

// responseBytes is the body's length without the digits of elapsedMs, the
// one field whose printed length varies from run to run.
func responseBytes(body []byte) int {
	key := []byte(`"elapsedMs":`)
	i := bytes.Index(body, key)
	if i < 0 {
		return len(body)
	}
	num := bytes.TrimLeft(body[i+len(key):], " ")
	end := bytes.IndexAny(num, ",}\n\r ")
	if end < 0 {
		end = len(num)
	}
	return len(body) - end
}

// runtimeSample is a reading of the Go runtime's counters.
type runtimeSample struct {
	allocBytes     uint64
	gcCPU, busyCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		busyCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			return spans, nil
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, s)
	}
}

// perLayer computes every per-layer metric from the spans: durations and
// self times per request (means over the traced requests), counts summed
// from the spans that carry them, and the run span's runtime readings.
func perLayer(spans []span) (map[string]metric, error) {
	child := map[int]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	dur := map[string]float64{}  // total ns per span name
	self := map[string]float64{} // total self ns per span name
	n := map[string]float64{}    // span count per name
	count := map[string]float64{}
	var run map[string]int64
	for _, s := range spans {
		d := float64(s.End - s.Start)
		dur[s.Name] += d
		self[s.Name] += d - float64(child[s.ID])
		n[s.Name]++
		for k, v := range s.Counts {
			count[s.Name+"."+k] += float64(v)
		}
		if s.Name == "run" {
			run = s.Counts
		}
	}
	reqs, untraced := n["gateway"], n["gateway.untraced"]
	if reqs == 0 || untraced == 0 || run == nil {
		return nil, errors.New("span file lacks gateway, gateway.untraced or run spans")
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	perReqMs := func(v float64) float64 { return v / reqs / 1e6 }
	perReqUs := func(v float64) float64 { return v / reqs / 1e3 }
	hits, misses := count["gateway.result_hits"], count["gateway.result_misses"]
	sHits, sMisses := count["gateway.stage_hits"], count["gateway.stage_misses"]
	values := map[string]float64{
		"cluster.self_ms":          perReqMs(self["gateway"]),
		"service.wire_ms":          perReqMs(self["direct"]),
		"service.handler_ms":       perReqMs(dur["handler"]),
		"service.self_ms":          perReqMs(self["handler"]),
		"service.key_us":           perReqUs(dur["key"]),
		"service.result_hit_ratio": ratio(hits, hits+misses),
		"service.response_kb":      count["gateway.response_bytes"] / reqs / 1024,
		"siwa.analyze_us":          perReqUs(dur["analyze"]),
		"memo.self_us":             perReqUs(self["analyze"]),
		"memo.hit_ratio":           ratio(sHits, sHits+sMisses),
		"memo.evictions_per_op":    count["gateway.stage_evictions"] / reqs,
		"memo.mb":                  float64(run["stage_bytes"]) / (1 << 20),
		"lang.parse_us":            perReqUs(dur["parse"]),
		"cfg.unroll_us":            perReqUs(dur["unroll"]),
		"sg.build_us":              perReqUs(dur["sg.build"]),
		"core.analyzer_us":         perReqUs(dur["core.analyzer"]),
		"core.detect_us":           perReqUs(dur["core.detect"]),
		"stall.check_us":           perReqUs(dur["stall.check"]),
		"siwa.project_us":          perReqUs(dur["project"]),
		"sg.rendezvous_per_op":     count["sg.build.rendezvous"] / reqs,
		"sg.sync_edges_per_op":     count["sg.build.sync_edges"] / reqs,
		"core.heads_per_op":        count["core.detect.heads"] / reqs,
		"go.alloc_kb_per_op":       float64(run["alloc_bytes"]) / untraced / 1024,
		"go.gc_cpu_share":          ratio(float64(run["gc_cpu_ns"]), float64(run["busy_cpu_ns"])),
		"trace.overhead_share":     ratio(dur["gateway"]/reqs, dur["gateway.untraced"]/untraced) - 1,
	}
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		out[lm.name] = metric{values[lm.name], lm.unit}
	}
	return out, nil
}
