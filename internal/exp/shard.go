package exp

import (
	"fmt"
	"slices"
	"sync"
)

// This file is the task-space machinery shared by every experiment family
// and by Figure 3: fixed-size contiguous shards over a task space, a
// weight-ordered dispatch queue, a generic worker pool with per-worker
// state, and point-interleaved slicing for CI matrices. Results must derive from task coordinates alone, so worker
// count and dispatch order can never change output bytes.

// shardSize is the number of tasks per worker shard: small enough to
// balance load across heterogeneous points, large enough that channel
// traffic and per-shard bookkeeping are negligible.
const shardSize = 8

// numShards returns the shard count covering total tasks.
func numShards(total int) int { return (total + shardSize - 1) / shardSize }

// shardRange returns shard si's task range [lo, hi).
func shardRange(si, total int) (lo, hi int) {
	lo = si * shardSize
	hi = lo + shardSize
	if hi > total {
		hi = total
	}
	return lo, hi
}

// orderByWeight returns indices sorted largest weight first, ties broken by
// index — the deterministic dispatch order that starts heavy shards while
// every worker still has queue ahead of it.
func orderByWeight(weight []float64) []int {
	order := make([]int, len(weight))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case weight[a] > weight[b]:
			return -1
		case weight[a] < weight[b]:
			return 1
		default:
			return a - b // stable, deterministic dispatch for equal weights
		}
	})
	return order
}

// shardWeights sums a per-task weight over each shard.
func shardWeights(total int, taskWeight func(ti int) float64) []float64 {
	weight := make([]float64, numShards(total))
	for si := range weight {
		lo, hi := shardRange(si, total)
		for ti := lo; ti < hi; ti++ {
			weight[si] += taskWeight(ti)
		}
	}
	return weight
}

// runSharded is the generic worker-pool core: tasks 0..total-1 are grouped
// into contiguous shards dispatched in the given order; workers pull shard
// indices from a channel, each owning one W built by newWorker (a family's
// instance runner, Figure 3's core.Runner), so simulation buffers are
// reused across a worker's whole share. onShard, when non-nil, is invoked by the finishing
// worker with each completed shard's index and task range; shards finish in
// arbitrary order and calls may be concurrent, so consumers that need task
// order must reorder by index (as RunCSV does). progress calls are
// serialised and counted under one lock, so (total, total) is always last.
func runSharded[W any](total, workers int, newWorker func() W, order []int,
	run func(wk W, ti int), onShard func(si, lo, hi int), progress func(done, total int)) {
	shards := make(chan int)
	done := 0
	var progressMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := newWorker()
			for si := range shards {
				lo, hi := shardRange(si, total)
				for ti := lo; ti < hi; ti++ {
					run(wk, ti)
					if progress != nil {
						progressMu.Lock()
						done++
						progress(done, total)
						progressMu.Unlock()
					}
				}
				if onShard != nil {
					onShard(si, lo, hi)
				}
			}
		}()
	}
	for _, si := range order {
		shards <- si
	}
	close(shards)
	wg.Wait()
}

// ShardPoints cuts a point slice into the k-th of n interleaved shards —
// points[k], points[k+n], points[k+2n], … — returning the shard and the
// global indices to pass as the options' PointIndices, so every shard
// derives the same instance seeds it would in an unsharded run.
// Interleaving (rather than contiguous ranges) spreads an expensive tail
// across all shards, keeping a CI matrix balanced. It panics unless
// 0 ≤ k < n.
func ShardPoints[P any](points []P, k, n int) ([]P, []int) {
	if n <= 0 || k < 0 || k >= n {
		panic(fmt.Sprintf("exp: shard %d/%d out of range", k, n))
	}
	var shard []P
	var indices []int
	for i := k; i < len(points); i += n {
		shard = append(shard, points[i])
		indices = append(indices, i)
	}
	return shard, indices
}
