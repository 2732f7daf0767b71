package siwa

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/workload"
)

// stageCacheDigestsFile pins the report of every program in
// TestStageCacheMatchesUncached, one SHA-256 of the marshalled JSONReport
// per line. The digests were generated before the uncached and cached
// analyses shared one pipeline, so they are a reference independent of
// the code under test. Regenerate only when a report is meant to change:
// go test -run TestStageCacheMatchesUncached -update-report-digests .
const stageCacheDigestsFile = "testdata/stage_cache_digests.txt"

// TestStageCacheMatchesUncached is the stage cache's ground-truth gate:
// across 200 random programs, the analysis must reproduce the pinned
// report digest byte for byte — with no cache, cold through a fresh
// cache, and again fully warm — for the complete detector spectrum, the
// constraint-4 certifier, the enumeration detector, and the stall
// analysis. One cache is shared across all programs so admission and
// lookup interleave the way they do in the service.
func TestStageCacheMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mc := NewStageCache(64 << 20)
	var got []string
	for i := 0; i < 200; i++ {
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2 + rng.Intn(3)
		cfg.StmtsPerTask = 2 + rng.Intn(3)
		cfg.BranchProb = 0.25
		cfg.LoopProb = 0.25
		src := workload.Random(rng, cfg).String()
		opt := Options{
			AllAlgorithms: true,
			Constraint4:   true,
			Enumerate:     true,
			FIFO:          i%2 == 1,
		}

		ref, err := AnalyzeSource(src, opt) // nil StageCache
		if err != nil {
			t.Fatalf("program %d: uncached analyze failed: %v", i, err)
		}
		want := reportDigest(t, ref)
		got = append(got, fmt.Sprintf("%d %s", i, want))

		opt.StageCache = mc
		for _, pass := range []string{"cold", "warm"} {
			rep, err := AnalyzeSource(src, opt)
			if err != nil {
				t.Fatalf("program %d (%s): memoized analyze failed: %v", i, pass, err)
			}
			if d := reportDigest(t, rep); d != want {
				t.Fatalf("program %d (%s): memoized report diverged from the uncached one\nmemoized: %+v\nuncached: %+v\nsource:\n%s",
					i, pass, rep.JSONReport(), ref.JSONReport(), src)
			}
		}
	}
	matchDigestFile(t, stageCacheDigestsFile, got)
	st := mc.Stats()
	if st.Hits == 0 || st.Builds == 0 {
		t.Fatalf("cache saw no traffic: %+v", st)
	}
	// Each program's warm pass repeats the cold pass's key set exactly, so
	// single-flight plus residency caps builds at the miss count of the
	// cold passes alone.
	if st.Builds > st.Misses {
		t.Fatalf("more builds than misses: %+v", st)
	}
}

// TestStageCacheConcurrentSingleFlight hammers one cache from many
// goroutines analyzing a small set of sources with every detector enabled,
// under the race detector. The single-flight contract is that concurrent
// misses on one key collapse: the total number of builds never exceeds the
// number of distinct keys (no entry is evicted — the budget is ample).
func TestStageCacheConcurrentSingleFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const nSources, nGoroutines, nRounds = 4, 8, 3

	srcs := make([]string, nSources)
	refs := make([]JSONReport, nSources)
	for i := range srcs {
		cfg := workload.DefaultConfig()
		cfg.Tasks = 2 + i%3
		cfg.StmtsPerTask = 3
		cfg.LoopProb = 0.3
		srcs[i] = workload.Random(rng, cfg).String()
		ref, err := AnalyzeSource(srcs[i], Options{AllAlgorithms: true, Enumerate: true})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref.JSONReport()
	}

	mc := NewStageCache(64 << 20)
	var wg sync.WaitGroup
	errs := make(chan error, nGoroutines)
	for g := 0; g < nGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < nRounds; r++ {
				for s := range srcs {
					i := (g + r + s) % nSources
					rep, err := AnalyzeSource(srcs[i], Options{
						AllAlgorithms: true,
						Enumerate:     true,
						StageCache:    mc,
					})
					if err != nil {
						errs <- fmt.Errorf("goroutine %d: %v", g, err)
						return
					}
					if got := rep.JSONReport(); !reflect.DeepEqual(got, refs[i]) {
						errs <- fmt.Errorf("goroutine %d: source %d diverged under concurrency", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := mc.Stats()
	if st.Evictions != 0 {
		t.Fatalf("ample budget evicted: %+v", st)
	}
	// Distinct keys per source: src, an, 5 verdicts (detect:naive shares
	// the spectrum's entry), stall, enumerate = 9.
	const maxKeys = nSources * 9
	if st.Builds > maxKeys {
		t.Fatalf("single-flight leaked: %d builds for at most %d distinct keys (%+v)",
			st.Builds, maxKeys, st)
	}
	if st.Entries > maxKeys {
		t.Fatalf("more entries than distinct keys: %+v", st)
	}
}

// TestStageCacheTinyBudgetEviction squeezes concurrent analyses through a
// cache too small to hold even one source's artifacts. Entries churn
// constantly; the invariant under the race detector is that eviction only
// unlinks entries — artifacts handed to a live analysis stay valid, so
// every report still matches the uncached reference.
func TestStageCacheTinyBudgetEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const nSources, nGoroutines = 3, 6

	srcs := make([]string, nSources)
	refs := make([]JSONReport, nSources)
	for i := range srcs {
		cfg := workload.DefaultConfig()
		cfg.Tasks = 3
		cfg.StmtsPerTask = 3
		cfg.LoopProb = 0.3
		srcs[i] = workload.Random(rng, cfg).String()
		ref, err := AnalyzeSource(srcs[i], Options{AllAlgorithms: true})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref.JSONReport()
	}

	mc := NewStageCache(2048) // a few entries at most; most admissions evict
	var wg sync.WaitGroup
	errs := make(chan error, nGoroutines)
	for g := 0; g < nGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				i := (g + r) % nSources
				rep, err := AnalyzeSource(srcs[i], Options{
					AllAlgorithms: true,
					StageCache:    mc,
				})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				if got := rep.JSONReport(); !reflect.DeepEqual(got, refs[i]) {
					errs <- fmt.Errorf("goroutine %d: source %d corrupted by eviction churn", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := mc.Stats(); st.Bytes > 2048 {
		t.Fatalf("byte budget exceeded: %+v", st)
	}
}

// BenchmarkStageCacheWarmSecondAlgorithm measures the tentpole win: asking
// a new algorithm about an already-analyzed source. cold runs the full
// pipeline — parse, unroll, sync graph, CLG and ordering tables, stall
// balance, then the sweep; warm reuses every cached artifact and executes
// only the new detector sweep. The warm path is expected to be >= 5x
// faster (scripts/bench_diff.sh tracks the ratio).
func BenchmarkStageCacheWarmSecondAlgorithm(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	cfg := workload.DefaultConfig()
	cfg.Tasks = 8
	cfg.StmtsPerTask = 6
	cfg.LoopProb = 0.3
	src := workload.Random(rng, cfg).String()

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AnalyzeSource(src, Options{Algorithm: AlgoNaive}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			mc := NewStageCache(64 << 20)
			// Prime with a different algorithm, as a first request would:
			// its sweep caches nothing the timed naive sweep can reuse.
			if _, err := AnalyzeSource(src, Options{StageCache: mc, Algorithm: AlgoRefined}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := AnalyzeSource(src, Options{StageCache: mc, Algorithm: AlgoNaive}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
