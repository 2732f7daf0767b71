package clg

import (
	"runtime"
	"testing"

	"repro/internal/sg"
	"repro/internal/workload"
)

// TestSizeBytesMatchesHeap compares SizeBytes with the heap a CLG really
// holds: the live-heap growth from keeping many builds of one sync graph,
// per build. Allocation size classes round every slice up, so the
// estimate runs a little under the heap; the band is wide enough not to
// flake and narrow enough to catch a term left out (counting adjacency in
// one direction only falls below half of the heap).
func TestSizeBytesMatchesHeap(t *testing.T) {
	const builds = 2000
	for _, tc := range []struct {
		name string
		g    *sg.Graph
	}{
		{"Ring(6)", sg.MustFromProgram(workload.Ring(6))},
		{"Pipeline(5,3)", sg.MustFromProgram(workload.Pipeline(5, 3))},
		{"Barrier(3,2)", sg.MustFromProgram(workload.Barrier(3, 2))},
	} {
		keep := make([]*CLG, builds)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range keep {
			keep[i] = Build(tc.g)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		real := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / builds
		est := float64(keep[0].SizeBytes())
		runtime.KeepAlive(keep)
		t.Logf("%s: estimate %.0f B, heap %.0f B per CLG (ratio %.2f)", tc.name, est, real, est/real)
		if est < 0.75*real || est > 1.25*real {
			t.Errorf("%s: SizeBytes %.0f B, heap holds %.0f B per CLG", tc.name, est, real)
		}
	}
}
