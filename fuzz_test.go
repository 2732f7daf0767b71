package siwa

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzLimits keeps fuzzed analyses small enough to run thousands per
// second while still covering every pipeline stage.
var fuzzLimits = Limits{MaxTasks: 32, MaxNodes: 256, MaxUnrolledNodes: 1024}

// fuzzStageCache is shared by every fuzz input, so its budget forces
// evictions and later inputs run against whatever earlier ones left.
var fuzzStageCache = NewStageCache(1 << 20)

// FuzzAnalyzeNaive drives the whole pipeline (parse, validate, limits,
// unroll, sync graph, CLG, naive + refined detectors, stall) on arbitrary
// input and asserts the robustness contract:
//
//   - no panic ever escapes — a *InternalError from Analyze means a stage
//     panicked, which is a bug by definition, so the fuzzer fails on it;
//   - the stage cache is transparent: AnalyzeSource with a shared cache
//     and with none reach the same outcome class (success, resource
//     refusal, parse/validation rejection, contained panic) and, on
//     success, the same JSONReport;
//   - the detector spectrum stays monotone: the refined detector only
//     removes false alarms, so refined "may deadlock" implies naive "may
//     deadlock" (Theorem: each refinement is at least as precise while
//     remaining conservative).
//
// Seeds are the checked-in example corpus, so fuzzing starts from real
// programs exercising every construct.
func FuzzAnalyzeNaive(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.ada"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no testdata seeds (err=%v)", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add("task a is begin b.m; end; task b is begin accept m; end;")
	f.Add("task a is begin while w loop b.m; end loop; end; task b is begin accept m; a.r; end;")
	f.Fuzz(func(t *testing.T, src string) {
		opt := Options{Algorithm: AlgoRefined, FIFO: true, Limits: fuzzLimits}
		plain, perr := AnalyzeSource(src, opt)
		opt.StageCache = fuzzStageCache
		cached, cerr := AnalyzeSource(src, opt)
		if pc, cc := outcomeClass(perr), outcomeClass(cerr); pc != cc {
			t.Fatalf("stage cache changed the outcome: %s (%v) uncached, %s (%v) cached\n%s", pc, perr, cc, cerr, src)
		}
		if perr == nil && !reflect.DeepEqual(plain.JSONReport(), cached.JSONReport()) {
			t.Fatalf("stage cache changed the report\nuncached: %+v\ncached:   %+v\n%s", plain.JSONReport(), cached.JSONReport(), src)
		}

		p, err := Parse(src)
		if err != nil {
			failOnInternal(t, err)
			return // rejection is fine; panics are not
		}
		naive, err := Analyze(p, Options{Algorithm: AlgoNaive, Limits: fuzzLimits})
		if err != nil {
			// Validation and resource-limit rejections are correct
			// behaviour on hostile input; contained panics are bugs.
			failOnInternal(t, err)
			return
		}
		refined, err := Analyze(p, Options{Algorithm: AlgoRefined, Limits: fuzzLimits})
		if err != nil {
			failOnInternal(t, err)
			t.Fatalf("refined failed where naive succeeded: %v", err)
		}
		if refined.Deadlock.MayDeadlock && !naive.Deadlock.MayDeadlock {
			t.Fatalf("spectrum not monotone: refined flags a deadlock naive missed\n%s", src)
		}
		// A deadlock-free verdict from the selected detector must agree
		// with the report-level certificate.
		if !naive.Deadlock.MayDeadlock && !naive.DeadlockFree() {
			t.Fatal("verdict and certificate disagree")
		}
	})
}

// outcomeClass names the kind of result an analysis reached.
func outcomeClass(err error) string {
	var ie *InternalError
	var re *ResourceError
	switch {
	case err == nil:
		return "success"
	case errors.As(err, &ie):
		return "internal error"
	case errors.As(err, &re):
		return "resource error"
	default:
		return "rejected"
	}
}

func failOnInternal(t *testing.T, err error) {
	t.Helper()
	var ie *InternalError
	if errors.As(err, &ie) {
		t.Fatalf("pipeline stage %s panicked: %v\n%s", ie.Stage, ie.Value, ie.Stack)
	}
}
