package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
)

// replicas is the fleet size behind the gateway.
const replicas = 2

// stackConfig carries the only settings that differ from the shipped
// binaries' flag defaults beyond logging and hedging. The benchmark leaves
// both zero (service defaults: 1024 results, 64 MiB stage cache); tests
// shrink them so that prefill is quick.
type stackConfig struct {
	resultEntries int
	stageCacheMB  int
}

// stack is the system under test: one gateway in front of two replicas,
// all on loopback listeners in this process.
type stack struct {
	cfg      stackConfig
	replicas []*service.Server
	urls     []string // replica base URLs, indexed like replicas
	gw       *cluster.Gateway
	gwURL    string
	client   *http.Client

	cancel context.CancelFunc
	wg     sync.WaitGroup
	mu     sync.Mutex
	err    error // first serve error
}

// startStack builds and starts the gateway and replicas with the shipped
// flag defaults, except that request logging and hedging are off: logging
// would measure stderr, and with both replicas on the same two CPUs a hedge
// only duplicates work.
func startStack(cfg stackConfig) (*stack, error) {
	ctx, cancel := context.WithCancel(context.Background())
	st := &stack{cfg: cfg, cancel: cancel}
	for i := 0; i < replicas; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, fmt.Errorf("replica listener: %w", err)
		}
		srv := service.New(service.Config{
			Addr:         ln.Addr().String(),
			CacheEntries: cfg.resultEntries,
			StageCacheMB: cfg.stageCacheMB,
		})
		st.replicas = append(st.replicas, srv)
		st.urls = append(st.urls, "http://"+ln.Addr().String())
		st.serve(ctx, srv.Serve, ln)
	}
	gw, err := cluster.New(cluster.Config{Backends: st.urls})
	if err != nil {
		st.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, fmt.Errorf("gateway listener: %w", err)
	}
	st.gw, st.gwURL = gw, "http://"+ln.Addr().String()
	st.serve(ctx, gw.Serve, ln)
	st.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
	return st, nil
}

func (st *stack) serve(ctx context.Context, serve func(context.Context, net.Listener) error, ln net.Listener) {
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		if err := serve(ctx, ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			st.mu.Lock()
			if st.err == nil {
				st.err = err
			}
			st.mu.Unlock()
		}
	}()
}

// close stops every server, waits for each to return, and reports the
// first serve error.
func (st *stack) close() error {
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
	st.cancel()
	st.wg.Wait()
	return st.err
}

// resultCapacity is the replicas' result-cache size in entries.
func (st *stack) resultCapacity() int {
	return service.Config{CacheEntries: st.cfg.resultEntries}.Normalize().CacheEntries
}

// post sends one analyze body to base and reads the whole response into
// buf, which the caller reuses across requests.
func (st *stack) post(base string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, fmt.Errorf("read response: %w", err)
	}
	return resp.StatusCode, nil
}

// cacheTotals sums both replicas' cache counters.
type cacheTotals struct {
	resultHits, resultMisses               uint64
	stageHits, stageMisses, stageEvictions uint64
}

func (st *stack) totals() cacheTotals {
	var t cacheTotals
	for _, s := range st.replicas {
		cs, ss := s.CacheStats(), s.StageCacheStats()
		t.resultHits += cs.Hits
		t.resultMisses += cs.Misses
		t.stageHits += ss.Hits
		t.stageMisses += ss.Misses
		t.stageEvictions += ss.Evictions
	}
	return t
}

// steady reports whether both caches of every replica are at steady state
// for a workload whose requests are fresh: the result cache is full and
// the stage cache has started evicting.
func (st *stack) steady() bool {
	for _, s := range st.replicas {
		if s.CacheStats().Entries < st.resultCapacity() || s.StageCacheStats().Evictions == 0 {
			return false
		}
	}
	return true
}

func (st *stack) describeCaches() string {
	var b bytes.Buffer
	for i, s := range st.replicas {
		cs, ss := s.CacheStats(), s.StageCacheStats()
		fmt.Fprintf(&b, " replica%d: results %d/%d hits=%d misses=%d, stage %.1f MiB evictions=%d;",
			i, cs.Entries, st.resultCapacity(), cs.Hits, cs.Misses, float64(ss.Bytes)/(1<<20), ss.Evictions)
	}
	return b.String()
}

// warmChunk is how many prefill jobs are sent between steady-state checks.
const warmChunk = 256

// warm brings the stack to the workload's steady state: hot-hits sends its
// hot set once, the others send prefill traffic in chunks until steady
// holds. Every response is checked like a timed one.
func (st *stack) warm(s *streams) error {
	if !s.fresh {
		res := st.drive(s.warm)
		if err := res.err(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		total := 0
		for _, r := range st.replicas {
			total += r.CacheStats().Entries
		}
		if total != len(s.warm) {
			return fmt.Errorf("warm-up left %d result-cache entries, want %d", total, len(s.warm))
		}
		return nil
	}
	for off := 0; !st.steady(); off += warmChunk {
		if off >= len(s.warm) {
			return fmt.Errorf("prefill stream of %d jobs exhausted before steady state:%s", len(s.warm), st.describeCaches())
		}
		res := st.drive(s.warm[off:min(off+warmChunk, len(s.warm))])
		if err := res.err(); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	return nil
}

// drive sends jobs through the gateway with the benchmark's clients, each
// taking the next job when its previous one is done, until all are sent.
func (st *stack) drive(jobs []job) *loadResult {
	return closedLoop(st, func(k int) (job, bool) {
		if k >= len(jobs) {
			return nil, false
		}
		return jobs[k], true
	}, time.Time{})
}
