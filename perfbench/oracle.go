package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	siwa "repro"
)

// precheck confirms the hand-written verdict table before a request is
// sent. For every table instance it runs the exact wave explorer
// (internal/waves, via Options.Exact) and requires that no rung the table
// certifies deadlock-free belongs to a program the explorer can deadlock;
// then it runs each rung through the library and requires the table's
// answer. A wrong table row or a changed library verdict fails the run
// here, not as a pile of failed requests.
func precheck(c *catalog) error {
	for _, in := range c.table {
		rep, err := siwa.AnalyzeSource(in.text, siwa.Options{Exact: true})
		if err != nil {
			return fmt.Errorf("oracle %s: %w", in.label, err)
		}
		if rep.Exact.Truncated {
			return fmt.Errorf("oracle %s: exact exploration truncated", in.label)
		}
		in.exactDeadlock = rep.Exact.Deadlock
		for r, may := range in.table {
			if !may && in.exactDeadlock {
				return fmt.Errorf("oracle %s: table certifies %s deadlock-free but the exact explorer finds a deadlock", in.label, rungs[r])
			}
			a, _ := siwa.AlgorithmByName(rungs[r])
			got, err := siwa.AnalyzeSource(in.text, siwa.Options{Algorithm: a, Parallelism: 1})
			if err != nil {
				return fmt.Errorf("oracle %s/%s: %w", in.label, rungs[r], err)
			}
			if got.Deadlock.MayDeadlock != may {
				return fmt.Errorf("oracle %s/%s: library says mayDeadlock=%t, table says %t", in.label, rungs[r], got.Deadlock.MayDeadlock, may)
			}
		}
	}
	return nil
}

// errUnsound marks a deadlock-free certificate for a program the exact
// explorer can deadlock: the one answer the paper promises never to give.
var errUnsound = errors.New("unsound verdict")

// checkResponse classifies one analyze response. It returns the served
// mayDeadlock answer; a non-nil error means the response is not a correct
// verdict (wrapping errUnsound for a soundness violation).
func checkResponse(r *request, status int, body []byte) (bool, error) {
	if status != http.StatusOK {
		return false, fmt.Errorf("%s/%s: HTTP %d", r.inst.label, rungs[r.rung], status)
	}
	algo, may, err := deadlockVerdict(body)
	if err != nil {
		return false, fmt.Errorf("%s/%s: %w", r.inst.label, rungs[r.rung], err)
	}
	if want := r.options().Algorithm.String(); algo != want {
		return may, fmt.Errorf("%s/%s: served algorithm %q, want %q", r.inst.label, rungs[r.rung], algo, want)
	}
	switch {
	case !may && r.inst.exactDeadlock:
		return may, fmt.Errorf("%s/%s: certified deadlock-free, exact explorer deadlocks: %w", r.inst.label, rungs[r.rung], errUnsound)
	case r.inst.table != nil && may != r.inst.table[r.rung]:
		return may, fmt.Errorf("%s/%s: mayDeadlock=%t, table says %t", r.inst.label, rungs[r.rung], may, r.inst.table[r.rung])
	}
	return may, nil
}

// deadlockVerdict reads report.deadlock.{algorithm,mayDeadlock} from an
// analyze response.
func deadlockVerdict(body []byte) (algo string, may bool, err error) {
	var resp struct {
		Report *struct {
			Deadlock *struct {
				Algorithm   string
				MayDeadlock *bool
			}
		}
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return "", false, err
	}
	switch {
	case resp.Report == nil || resp.Report.Deadlock == nil:
		return "", false, errors.New("response has no report.deadlock")
	case resp.Report.Deadlock.MayDeadlock == nil:
		return "", false, errors.New("report.deadlock has no mayDeadlock")
	}
	return resp.Report.Deadlock.Algorithm, *resp.Report.Deadlock.MayDeadlock, nil
}
