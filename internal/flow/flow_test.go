package flow

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"stretchsched/internal/lp"
	"stretchsched/internal/rat"
)

func f64Graph(n int) *Graph[float64] { return NewGraph[float64](lp.NewFloat64Ops(), n) }

func TestMaxFlowTextbook(t *testing.T) {
	// Classic CLRS network, max flow 23.
	g := f64Graph(6)
	s, v1, v2, v3, v4, tt := 0, 1, 2, 3, 4, 5
	g.AddEdge(s, v1, 16)
	g.AddEdge(s, v2, 13)
	g.AddEdge(v1, v3, 12)
	g.AddEdge(v2, v1, 4)
	g.AddEdge(v2, v4, 14)
	g.AddEdge(v3, v2, 9)
	g.AddEdge(v3, tt, 20)
	g.AddEdge(v4, v3, 7)
	g.AddEdge(v4, tt, 4)
	if got := g.MaxFlow(s, tt); math.Abs(got-23) > 1e-9 {
		t.Fatalf("max flow = %v, want 23", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := f64Graph(3)
	g.AddEdge(0, 1, 5)
	if got := g.MaxFlow(0, 2); got != 0 {
		t.Fatalf("max flow = %v, want 0", got)
	}
}

func TestSecondCallReturnsZero(t *testing.T) {
	g := f64Graph(2)
	g.AddEdge(0, 1, 7)
	if got := g.MaxFlow(0, 1); math.Abs(got-7) > 1e-12 {
		t.Fatalf("first = %v", got)
	}
	if got := g.MaxFlow(0, 1); got != 0 {
		t.Fatalf("second = %v, want 0", got)
	}
}

func TestEdgeFlowRecovery(t *testing.T) {
	g := f64Graph(4)
	a := g.AddEdge(0, 1, 3)
	b := g.AddEdge(0, 2, 2)
	c := g.AddEdge(1, 3, 2)
	d := g.AddEdge(2, 3, 3)
	total := g.MaxFlow(0, 3)
	if math.Abs(total-4) > 1e-9 {
		t.Fatalf("flow = %v, want 4", total)
	}
	if got := g.EdgeFlow(a) + g.EdgeFlow(b); math.Abs(got-total) > 1e-9 {
		t.Fatalf("source edges carry %v", got)
	}
	if got := g.EdgeFlow(c) + g.EdgeFlow(d); math.Abs(got-total) > 1e-9 {
		t.Fatalf("sink edges carry %v", got)
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f64Graph(2).AddEdge(0, 1, -1)
}

func TestRationalMaxFlowExact(t *testing.T) {
	g := NewGraph[rat.Rat](lp.RatOps{}, 4)
	g.AddEdge(0, 1, rat.FromFrac(1, 3))
	g.AddEdge(0, 2, rat.FromFrac(1, 7))
	g.AddEdge(1, 3, rat.FromFrac(1, 2))
	g.AddEdge(2, 3, rat.FromFrac(1, 2))
	got := g.MaxFlow(0, 3)
	want := rat.FromFrac(1, 3).Add(rat.FromFrac(1, 7))
	if !got.Equal(want) {
		t.Fatalf("max flow = %v, want %v", got, want)
	}
}

// randomNetwork builds a random DAG-ish network with integer capacities.
func randomNetwork(rng *rand.Rand, n int) (*Graph[float64], *Graph[rat.Rat], [][3]int) {
	gf := f64Graph(n)
	gr := NewGraph[rat.Rat](lp.RatOps{}, n)
	var edges [][3]int
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || rng.Float64() > 0.4 {
				continue
			}
			c := rng.Intn(10) + 1
			gf.AddEdge(u, v, float64(c))
			gr.AddEdge(u, v, rat.FromInt(int64(c)))
			edges = append(edges, [3]int{u, v, c})
		}
	}
	return gf, gr, edges
}

func TestMaxFlowMatchesMinCutAndRational(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(5)
		gf, gr, edges := randomNetwork(rng, n)
		s, sink := 0, n-1
		ff := gf.MaxFlow(s, sink)
		fr := gr.MaxFlow(s, sink)
		if math.Abs(ff-fr.Float()) > 1e-9 {
			t.Fatalf("trial %d: float %v != rational %v", trial, ff, fr)
		}
		// Max-flow/min-cut certificate.
		reach := gf.MinCutReachable(s)
		if reach[sink] && ff > 0 {
			// Sink reachable means flow not maximal (residual path remains).
			t.Fatalf("trial %d: residual path to sink remains", trial)
		}
		cut := 0.0
		for _, e := range edges {
			if reach[e[0]] && !reach[e[1]] {
				cut += float64(e[2])
			}
		}
		if math.Abs(cut-ff) > 1e-9 {
			t.Fatalf("trial %d: cut %v != flow %v", trial, cut, ff)
		}
	}
}

func TestMaxFlowConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(4)
		gf, _, _ := randomNetwork(rng, n)
		s, sink := 0, n-1
		total := gf.MaxFlow(s, sink)
		// Net flow out of every internal node must be zero.
		net := make([]float64, n)
		for u := 0; u < n; u++ {
			for _, id := range gf.head[u] {
				if id%2 != 0 {
					continue // skip residual twins
				}
				f := gf.EdgeFlow(id)
				net[u] -= f
				net[gf.to[id]] += f
			}
		}
		for u := 1; u < n-1; u++ {
			if math.Abs(net[u]) > 1e-9 {
				t.Fatalf("trial %d: node %d imbalance %v", trial, u, net[u])
			}
		}
		if math.Abs(net[sink]-total) > 1e-9 || math.Abs(net[s]+total) > 1e-9 {
			t.Fatalf("trial %d: endpoint imbalance", trial)
		}
	}
}

func TestMinCostSimple(t *testing.T) {
	// Two parallel paths; cheaper one must fill first.
	g := NewMinCost(4, 0)
	cheap := g.AddEdge(0, 1, 5, 1)
	exp := g.AddEdge(0, 2, 5, 10)
	g.AddEdge(1, 3, 5, 0)
	g.AddEdge(2, 3, 5, 0)
	flowTotal, costTotal := g.Run(0, 3)
	if math.Abs(flowTotal-10) > 1e-9 {
		t.Fatalf("flow = %v", flowTotal)
	}
	if math.Abs(costTotal-55) > 1e-9 {
		t.Fatalf("cost = %v, want 55", costTotal)
	}
	if math.Abs(g.EdgeFlow(cheap)-5) > 1e-9 || math.Abs(g.EdgeFlow(exp)-5) > 1e-9 {
		t.Fatal("edge flows wrong")
	}
}

func TestMinCostPrefersCheapPath(t *testing.T) {
	// Capacity exceeds demand: only the cheap path should carry flow.
	g := NewMinCost(4, 0)
	cheap := g.AddEdge(0, 1, 10, 1)
	exp := g.AddEdge(0, 2, 10, 5)
	g.AddEdge(1, 3, 10, 0)
	g.AddEdge(2, 3, 10, 0)
	g.AddNode() // exercise AddNode
	src := g.AddNode()
	g.AddEdge(src, 0, 6, 0)
	flowTotal, costTotal := g.Run(src, 3)
	if math.Abs(flowTotal-6) > 1e-9 || math.Abs(costTotal-6) > 1e-9 {
		t.Fatalf("flow %v cost %v, want 6 and 6", flowTotal, costTotal)
	}
	if g.EdgeFlow(exp) > 1e-9 || math.Abs(g.EdgeFlow(cheap)-6) > 1e-9 {
		t.Fatal("expensive path used unnecessarily")
	}
}

// TestMinCostQueueOrder drives the Dijkstra queue, the repository's one
// heap, directly: under random interleaved pushes and pops (with tied
// distances), every pop is no larger than anything left in the queue, and
// the popped multiset equals the pushed one. A sift-down that stops early
// (the shape of a past cluster-queue bug) fails it.
func TestMinCostQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewMinCost(0, 0)
	var pushed, popped []pqItem
	pop := func() {
		it := g.pqPop()
		for _, rest := range g.pq {
			if rest.dist < it.dist {
				t.Fatalf("popped %v while %v was still queued", it, rest)
			}
		}
		popped = append(popped, it)
	}
	for i := 0; i < 2000; i++ {
		if len(g.pq) == 0 || rng.Intn(3) > 0 {
			it := pqItem{node: int32(i), dist: float64(rng.Intn(64))}
			g.pqPush(it)
			pushed = append(pushed, it)
		} else {
			pop()
		}
	}
	for len(g.pq) > 0 {
		pop()
	}
	byNode := func(s []pqItem) {
		sort.Slice(s, func(a, b int) bool { return s[a].node < s[b].node })
	}
	byNode(pushed)
	byNode(popped)
	if len(popped) != len(pushed) {
		t.Fatalf("popped %d of %d pushed", len(popped), len(pushed))
	}
	for i := range pushed {
		if pushed[i] != popped[i] {
			t.Fatalf("multiset mismatch at %d: pushed %v, popped %v", i, pushed[i], popped[i])
		}
	}
}

func TestMinCostNegativeCostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMinCost(2, 0).AddEdge(0, 1, 1, -1)
}

// TestMinCostMatchesLP cross-validates min-cost flow against the simplex on
// random transportation problems.
func TestMinCostMatchesLP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		nsup := 2 + rng.Intn(3)
		ndem := 2 + rng.Intn(3)
		supply := make([]float64, nsup)
		demand := make([]float64, ndem)
		tot := 0.0
		for i := range supply {
			supply[i] = float64(rng.Intn(8) + 1)
			tot += supply[i]
		}
		rem := tot
		for j := 0; j < ndem-1; j++ {
			demand[j] = math.Floor(rem * rng.Float64() * 0.6)
			rem -= demand[j]
		}
		demand[ndem-1] = rem
		cost := make([][]float64, nsup)
		for i := range cost {
			cost[i] = make([]float64, ndem)
			for j := range cost[i] {
				cost[i][j] = float64(rng.Intn(9) + 1)
			}
		}

		// Min-cost flow formulation.
		g := NewMinCost(nsup+ndem+2, 0)
		s := nsup + ndem
		sink := s + 1
		for i := range supply {
			g.AddEdge(s, i, supply[i], 0)
		}
		for j := range demand {
			g.AddEdge(nsup+j, sink, demand[j], 0)
		}
		for i := range supply {
			for j := range demand {
				g.AddEdge(i, nsup+j, tot, cost[i][j]) // cap tot suffices
			}
		}
		fl, fc := g.Run(s, sink)
		if math.Abs(fl-tot) > 1e-9 {
			t.Fatalf("trial %d: flow %v != total %v", trial, fl, tot)
		}

		// LP formulation: min Σ c_ij x_ij st Σ_j x_ij = supply_i, Σ_i x_ij = demand_j.
		p := lp.New[float64](lp.NewFloat64Ops(), nsup*ndem)
		for i := range supply {
			for j := range demand {
				p.SetObjectiveCoef(i*ndem+j, cost[i][j])
			}
		}
		for i := range supply {
			vars, coefs := []int{}, []float64{}
			for j := range demand {
				vars = append(vars, i*ndem+j)
				coefs = append(coefs, 1)
			}
			p.AddSparse(vars, coefs, lp.EQ, supply[i])
		}
		for j := range demand {
			vars, coefs := []int{}, []float64{}
			for i := range supply {
				vars = append(vars, i*ndem+j)
				coefs = append(coefs, 1)
			}
			p.AddSparse(vars, coefs, lp.EQ, demand[j])
		}
		sol, err := p.Solve()
		if err != nil {
			t.Fatalf("trial %d: LP: %v", trial, err)
		}
		if math.Abs(sol.Objective-fc) > 1e-6 {
			t.Fatalf("trial %d: LP obj %v != flow cost %v", trial, sol.Objective, fc)
		}
	}
}
