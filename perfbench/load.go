package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's concurrency: two callers, each on its own
// keep-alive connection, each sending its next request only after the
// previous answer arrived. The shape supposes CI jobs that submit a
// program and wait for the verdict; no traffic record backs it (see
// README.md). Two matches the two CPUs the benchmark is sized for.
const clients = 2

// maxWrong caps how many failed or wrong requests a result keeps for the
// log.
const maxWrong = 5

// loadResult aggregates what the clients saw.
type loadResult struct {
	lat       []time.Duration // one per completed request, all clients
	attempted int
	ok        int // HTTP 200 carrying the expected verdict
	failed    int // transport errors and non-200 responses
	wrong     int // HTTP 200 with a wrong verdict
	examples  []error
	unsound   error
	exhausted bool // the job stream ran out before the deadline
	wall      time.Duration
}

// err reports any request that was not a correct 200, for phases (warm-up,
// prefill) in which every request must succeed.
func (r *loadResult) err() error {
	switch {
	case r.unsound != nil:
		return r.unsound
	case r.failed+r.wrong > 0:
		return fmt.Errorf("%d of %d requests failed or were wrong: %v", r.failed+r.wrong, r.attempted, r.examples)
	}
	return nil
}

// closedLoop runs the clients until next has no job left or, when deadline
// is set, until the deadline passes; a request started before the deadline
// completes and counts. A soundness violation stops every client at once.
func closedLoop(st *stack, next func(k int) (job, bool), deadline time.Time) *loadResult {
	var (
		counter atomic.Int64
		stop    atomic.Bool
		mu      sync.Mutex
		wg      sync.WaitGroup
	)
	res := &loadResult{}
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				buf                          bytes.Buffer
				body                         []byte
				lat                          []time.Duration
				attempted, ok, failed, wrong int
				examples                     []error
				unsound                      error
				exhausted                    bool
			)
		jobs:
			for !stop.Load() && (deadline.IsZero() || time.Now().Before(deadline)) {
				j, more := next(int(counter.Add(1) - 1))
				if !more {
					exhausted = true
					break
				}
				for _, r := range j {
					if stop.Load() {
						break jobs
					}
					attempted++
					body = r.appendBody(body[:0])
					t0 := time.Now()
					status, err := st.post(st.gwURL, body, &buf)
					d := time.Since(t0)
					if err != nil {
						failed++
						examples = keep(examples, err)
						continue jobs
					}
					lat = append(lat, d)
					may, err := checkResponse(r, status, buf.Bytes())
					switch {
					case errors.Is(err, errUnsound):
						unsound = err
						stop.Store(true)
						break jobs
					case err != nil && status != http.StatusOK:
						failed++
						examples = keep(examples, err)
						continue jobs
					case err != nil:
						wrong++
						examples = keep(examples, err)
					default:
						ok++
					}
					if !may {
						break // a ladder stops at the first certificate
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			res.lat = append(res.lat, lat...)
			res.attempted += attempted
			res.ok += ok
			res.failed += failed
			res.wrong += wrong
			for _, e := range examples {
				res.examples = keep(res.examples, e)
			}
			if unsound != nil && res.unsound == nil {
				res.unsound = unsound
			}
			res.exhausted = res.exhausted || exhausted
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// keep appends err to errs unless maxWrong are already kept.
func keep(errs []error, err error) []error {
	if len(errs) < maxWrong {
		errs = append(errs, err)
	}
	return errs
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, which must be non-empty.
func percentile(sorted []time.Duration, p float64) time.Duration {
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(rank, len(sorted)-1))]
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}
