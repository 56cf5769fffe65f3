// Package flow provides network-flow solvers used as fast combinatorial
// oracles by the stretch schedulers.
//
// Checking that every job can meet its deadline d̄_j(F) on a set of uniform
// machines with restricted availabilities (System (1) of the paper, with F
// fixed) is exactly a transportation problem: ship W_j units of work from
// each job to (interval × machine) bins of capacity len(I_t)/p_i, with an
// edge only when the interval lies inside the job's [r_j, d̄_j] window and
// the machine hosts the job's databank. Feasibility ⇔ max-flow = ΣW_j, which
// Dinic answers orders of magnitude faster than the equivalent LP.
//
// The sum-stretch-like refinement of System (2) is the same network with a
// per-interval cost, i.e. a min-cost max-flow problem (see mincost.go).
//
// Capacities are generic: float64 for the simulation fast path, exact
// rationals (via lp.RatOps) to reproduce precision-sensitive cases.
//
// All three solvers support Reset, which clears the network while keeping
// every backing buffer, so a caller that solves many networks of similar
// shape (the feasibility bisection of the offline solver, the per-arrival
// re-plans of the online heuristics) performs no steady-state allocation.
// See DESIGN.md, "Planner workspaces".
package flow

import "stretchsched/internal/lp"

// Edge is one directed edge of the residual network.
type Edge struct {
	To  int
	Cap interface{} // diagnostic only; see Graph.EdgeFlow for typed access
}

// Graph is a flow network under construction. T is the capacity scalar type.
type Graph[T any] struct {
	ops  lp.Ops[T]
	n    int
	head [][]int // adjacency: node -> indices into edges
	to   []int
	cap  []T // residual capacity
	orig []T // original capacity (to recover flow)

	// MaxFlow scratch, retained across calls.
	level []int
	iter  []int
	queue []int  // BFS queue; MinCutReachable's stack
	seen  []bool // MinCutReachable result
	sink  int
	inf   T // augmentation limit during the current MaxFlow
}

// NewGraph returns an empty network with n nodes.
func NewGraph[T any](ops lp.Ops[T], n int) *Graph[T] {
	g := &Graph[T]{}
	g.Reset(ops, n)
	return g
}

// Reset clears the network to n isolated nodes while retaining every backing
// buffer, so rebuilding a similarly-shaped network allocates nothing. ops is
// taken afresh because float backends carry a per-network tolerance.
//
//stretch:noalloc
func (g *Graph[T]) Reset(ops lp.Ops[T], n int) {
	g.ops = ops
	g.n = n
	if cap(g.head) < n {
		g.head = make([][]int, n) //stretch:alloc-ok — buffer growth
	}
	g.head = g.head[:n]
	for i := range g.head {
		g.head[i] = g.head[i][:0]
	}
	g.to = g.to[:0]
	g.cap = g.cap[:0]
	g.orig = g.orig[:0]
}

// NumNodes returns the node count.
func (g *Graph[T]) NumNodes() int { return g.n }

// AddNode appends a fresh node and returns its index, reviving a parked
// adjacency buffer when a shrinking Reset left one in the backing array.
//
//stretch:noalloc
func (g *Graph[T]) AddNode() int {
	if len(g.head) < cap(g.head) {
		g.head = g.head[:len(g.head)+1]
		g.head[g.n] = g.head[g.n][:0]
	} else {
		g.head = append(g.head, nil)
	}
	g.n++
	return g.n - 1
}

// AddEdge adds a directed edge u→v with the given capacity and returns its
// identifier, which can later be passed to EdgeFlow.
//
//stretch:noalloc
func (g *Graph[T]) AddEdge(u, v int, capacity T) int {
	if g.ops.Sign(capacity) < 0 {
		panic("flow: negative capacity")
	}
	id := len(g.to)
	g.to = append(g.to, v)
	g.cap = append(g.cap, capacity)
	g.orig = append(g.orig, capacity)
	g.head[u] = append(g.head[u], id)

	g.to = append(g.to, u)
	g.cap = append(g.cap, g.ops.Zero())
	g.orig = append(g.orig, g.ops.Zero())
	g.head[v] = append(g.head[v], id+1)
	return id
}

// EdgeFlow returns the flow currently routed through edge id.
func (g *Graph[T]) EdgeFlow(id int) T {
	return g.ops.Sub(g.orig[id], g.cap[id])
}

// MaxFlow runs Dinic's algorithm from s to t and returns the max-flow value.
// The graph retains the final residual state, so EdgeFlow is meaningful
// afterwards. Calling MaxFlow twice continues from the current residual
// state (returning 0 the second time).
//
//stretch:noalloc
func (g *Graph[T]) MaxFlow(s, t int) T {
	ops := g.ops
	total := ops.Zero()
	g.level = grow(g.level, g.n)
	g.iter = grow(g.iter, g.n)
	if cap(g.queue) < g.n {
		g.queue = make([]int, 0, g.n) //stretch:alloc-ok — buffer growth
	}
	g.sink = t

	// A limit larger than any possible augmentation: sum of source capacities.
	g.inf = ops.One()
	for _, id := range g.head[s] {
		g.inf = ops.Add(g.inf, g.cap[id])
	}

	for g.bfs(s, t) {
		for i := range g.iter[:g.n] {
			g.iter[i] = 0
		}
		for {
			got := g.dfs(s, g.inf)
			if ops.Sign(got) <= 0 {
				break
			}
			total = ops.Add(total, got)
		}
	}
	return total
}

// bfs builds the level graph of the residual network.
//
//stretch:noalloc
func (g *Graph[T]) bfs(s, t int) bool {
	ops := g.ops
	for i := range g.level[:g.n] {
		g.level[i] = -1
	}
	g.level[s] = 0
	queue := g.queue[:0]
	queue = append(queue, s)
	for qi := 0; qi < len(queue); qi++ {
		u := queue[qi]
		for _, id := range g.head[u] {
			v := g.to[id]
			if g.level[v] == -1 && ops.Sign(g.cap[id]) > 0 {
				g.level[v] = g.level[u] + 1
				queue = append(queue, v)
			}
		}
	}
	g.queue = queue
	return g.level[t] >= 0
}

// dfs pushes a blocking-flow augmentation toward g.sink along level-graph
// arcs. It is a method rather than a recursive closure so that repeated
// MaxFlow calls stay allocation-free.
//
//stretch:noalloc
func (g *Graph[T]) dfs(u int, limit T) T {
	ops := g.ops
	if u == g.sink {
		return limit
	}
	for ; g.iter[u] < len(g.head[u]); g.iter[u]++ {
		id := g.head[u][g.iter[u]]
		v := g.to[id]
		if g.level[v] != g.level[u]+1 || ops.Sign(g.cap[id]) <= 0 {
			continue
		}
		pushed := limit
		if ops.Cmp(g.cap[id], pushed) < 0 {
			pushed = g.cap[id]
		}
		got := g.dfs(v, pushed)
		if ops.Sign(got) > 0 {
			g.cap[id] = ops.Sub(g.cap[id], got)
			g.cap[id^1] = ops.Add(g.cap[id^1], got)
			return got
		}
	}
	return ops.Zero()
}

// MinCutReachable returns, after MaxFlow, the set of nodes reachable from s
// in the residual network: the source side of a minimum cut. The slice is
// graph scratch, overwritten by the next call, so reading cuts of
// successive networks allocates nothing.
//
//stretch:noalloc
func (g *Graph[T]) MinCutReachable(s int) []bool {
	ops := g.ops
	g.seen = grow(g.seen, g.n)
	clear(g.seen)
	g.seen[s] = true
	stack := append(g.queue[:0], s)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range g.head[u] {
			v := g.to[id]
			if !g.seen[v] && ops.Sign(g.cap[id]) > 0 {
				g.seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	g.queue = stack
	return g.seen
}

// grow returns s resized to length n, reusing its backing array when large
// enough. Contents are unspecified; callers refill what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
