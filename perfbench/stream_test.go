package main

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"repro/internal/service"
)

// bodies flattens a workload's streams into the exact bytes it sends.
func bodies(t *testing.T, name string, seed int64) [][]byte {
	t.Helper()
	c, err := buildCatalog(seed)
	if err != nil {
		t.Fatal(err)
	}
	s, err := generate(c, name, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, js := range [][]job{s.warm, s.timed} {
		for _, j := range js {
			for _, r := range j {
				out = append(out, r.appendBody(nil))
			}
		}
	}
	return out
}

func TestBodyIsMarshalledRequest(t *testing.T) {
	c, err := buildCatalog(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range append(c.table, c.random...) {
		for rung := range rungs {
			r := &request{in, rung, "salt 7 lineage 2"}
			want, err := json.Marshal(service.AnalyzeRequest{
				Source:  r.source(),
				Options: &service.WireOptions{Algorithm: rungs[rung]},
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := r.appendBody(nil); !bytes.Equal(got, want) {
				t.Fatalf("%s/%s: body\n%s\nwant\n%s", in.label, rungs[rung], got, want)
			}
		}
	}
}

func TestStreamsAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b, other := bodies(t, w, 11), bodies(t, w, 11), bodies(t, w, 12)
		if len(a) != len(b) {
			t.Fatalf("%s: same seed gave %d and %d bodies", w, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: same seed, body %d differs:\n%s\n%s", w, i, a[i], b[i])
			}
		}
		same := len(a) == len(other)
		for i := 0; same && i < len(a); i++ {
			same = bytes.Equal(a[i], other[i])
		}
		if same {
			t.Errorf("%s: seeds 11 and 12 gave identical streams", w)
		}
	}
}

// exactCounts are the per-layer metrics that must repeat exactly for one
// seed: they count work and bytes, not time.
var exactCounts = []string{
	"service.response_kb", "sg.rendezvous_per_op", "sg.sync_edges_per_op",
	"core.heads_per_op", "service.result_hit_ratio", "memo.hit_ratio",
}

func TestTracedCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("starts the gateway and replicas")
	}
	for _, w := range workloads {
		var runs [2]*output
		for i := range runs {
			b := &bench{
				workload: w, seed: 5, seconds: 1, setups: 1,
				// Small caches reach steady state after a few hundred
				// requests instead of thousands.
				stack:     stackConfig{resultEntries: 256, stageCacheMB: 1},
				traceJobs: 40, traceDir: t.TempDir(),
			}
			out, err := b.traced(io.Discard)
			if err != nil {
				t.Fatalf("%s run %d: %v", w, i, err)
			}
			if len(out.Metrics) != len(layerMetrics) {
				t.Fatalf("%s: %d per-layer metrics, want %d", w, len(out.Metrics), len(layerMetrics))
			}
			runs[i] = out
		}
		for _, name := range exactCounts {
			if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b {
				t.Errorf("%s: %s = %v then %v with one seed", w, name, a, b)
			}
		}
		if runs[0].Metrics["service.response_kb"].Value == 0 {
			t.Errorf("%s: no response bytes counted", w)
		}
	}
}

func TestDeadlockVerdict(t *testing.T) {
	for _, tc := range []struct {
		body string
		algo string
		may  bool
	}{
		{`{"report": {"deadlock": {"algorithm": "naive", "mayDeadlock": true}}}`, "naive", true},
		{`{"report":{"deadlock":{"algorithm":"refined+head-pairs","mayDeadlock":false},"deadlockFree":true}}`, "refined+head-pairs", false},
		{`{"report":{"deadlock":{"mayDeadlock":false,"witnesses":[["a"]],"algorithm":"pairs"}}}`, "pairs", false},
	} {
		algo, may, err := deadlockVerdict([]byte(tc.body))
		if err != nil || algo != tc.algo || may != tc.may {
			t.Errorf("deadlockVerdict(%s) = %q, %t, %v; want %q, %t", tc.body, algo, may, err, tc.algo, tc.may)
		}
	}
	if _, _, err := deadlockVerdict([]byte(`{"error":{"code":"timeout"}}`)); err == nil {
		t.Error("an error body passed as a verdict")
	}
}
