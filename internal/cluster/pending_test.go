package cluster

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"stretchsched/internal/model"
	"stretchsched/internal/policy"
	"stretchsched/internal/sim"
	"stretchsched/internal/workload"
)

// TestPendingHeapOrder: interleaved out-of-order pushes pop back in
// strict (t, g) order. Regression for the pending queue's former heap,
// whose sift-down never descended below the root, which let later
// arrivals pop before earlier ones and fed the event loop times that ran
// backwards.
func TestPendingHeapOrder(t *testing.T) {
	w := &World{}
	for g, rel := range []float64{1, 2, 3, 10, 11, 12, 13} {
		w.pendingPush(pendingArrival{t: rel, g: model.JobID(g)})
	}
	prev := pendingArrival{t: -1}
	for len(w.pending) > 0 {
		p := w.pendingPop()
		if pendingLess(p, prev) {
			t.Fatalf("popped %v after %v: out of (t, g) order", p, prev)
		}
		prev = p
	}
}

// TestPendingHeapRandomized: pushes and pops interleave under random
// times (retries land mid-drain, as failNode does); every pop must
// return the minimum of what the queue holds at that instant, and the
// popped multiset must equal the pushed one.
func TestPendingHeapRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	w := &World{}
	var pushed, popped []pendingArrival
	for i := 0; i < 500; i++ {
		if len(w.pending) == 0 || rng.Intn(3) > 0 {
			p := pendingArrival{t: float64(rng.Intn(64)), g: model.JobID(i)}
			w.pendingPush(p)
			pushed = append(pushed, p)
		} else {
			p := w.pendingPop()
			for _, rest := range w.pending {
				if pendingLess(rest, p) {
					t.Fatalf("popped %v while %v was still queued", p, rest)
				}
			}
			popped = append(popped, p)
		}
	}
	for len(w.pending) > 0 {
		p := w.pendingPop()
		for _, rest := range w.pending {
			if pendingLess(rest, p) {
				t.Fatalf("popped %v while %v was still queued", p, rest)
			}
		}
		popped = append(popped, p)
	}
	if len(popped) != len(pushed) {
		t.Fatalf("popped %d of %d pushed", len(popped), len(pushed))
	}
	sort.Slice(pushed, func(a, b int) bool { return pendingLess(pushed[a], pushed[b]) })
	sort.Slice(popped, func(a, b int) bool { return pendingLess(popped[a], popped[b]) })
	for i := range pushed {
		if pushed[i] != popped[i] {
			t.Fatalf("multiset mismatch at %d: pushed %v, popped %v", i, pushed[i], popped[i])
		}
	}
}

// TestAdvanceAllClockBackwards: an event instant before the previous one
// is a typed error, not a silent skip that would hide an out-of-order
// event source like the queue bug above, while a repeated instant stays
// legal.
func TestAdvanceAllClockBackwards(t *testing.T) {
	inst, err := workload.Config{
		Sites: 1, ProcsPerSite: 1, Databanks: 4, Availability: 1,
		Density: 1, TargetJobs: 8, SizeRange: [2]float64{10, 200}, Seed: 3,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	ci, err := model.Replicate(inst.Platform, 2, inst.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(ci, NewRandom(), PolicyLocal(func() sim.Policy { return policy.SWRPT{} }), 1)
	if err != nil {
		t.Fatal(err)
	}
	w.resetNodes()
	for _, at := range []float64{5, 5} {
		if err := w.advanceAll(at, nil); err != nil {
			t.Fatalf("advanceAll(%v): %v", at, err)
		}
	}
	if err := w.advanceAll(3, nil); !errors.Is(err, ErrClockBackwards) {
		t.Fatalf("advanceAll(3) after 5: got %v, want ErrClockBackwards", err)
	}
}
