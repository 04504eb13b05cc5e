package topology

import "fmt"

// RouteTable holds minimal-routing next hops: NextHop(src, dst) is the
// neighbor src forwards to on a minimal path toward dst (Table III:
// "Routing: Minimal"). Ties break toward the lowest-numbered neighbor,
// which keeps routes deterministic across runs.
type RouteTable struct {
	g *Graph
	n int
	// next is N×N, row src at [src·N, (src+1)·N).
	next []int32
}

// BuildRoutes computes all-pairs minimal routes with one BFS per source.
// Each node's first hop is set when the BFS discovers it: a neighbour of
// the source is its own first hop, and any other node inherits the first
// hop of the node that discovered it, which is the hop a walk back along
// the BFS tree would find. For the ≤256-node fabrics of the paper this is
// instantaneous.
func BuildRoutes(g *Graph) *RouteTable {
	n := g.N
	rt := &RouteTable{g: g, n: n, next: make([]int32, n*n)}
	// The BFS queue is shared by every source: each BFS visits a node at
	// most once, so it never holds more than N entries.
	queue := make([]int32, 0, n)
	for src := 0; src < n; src++ {
		next := rt.next[src*n : (src+1)*n]
		for i := range next {
			next[i] = -1
		}
		queue = append(queue[:0], int32(src))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			hop := next[v]
			for _, e := range g.Adj[v] {
				if e.To == src || next[e.To] != -1 {
					continue
				}
				if int(v) == src {
					next[e.To] = int32(e.To)
				} else {
					next[e.To] = hop
				}
				queue = append(queue, int32(e.To))
			}
		}
	}
	return rt
}

// NextHop returns the neighbor src forwards to for dst, or -1 when dst is
// src or unreachable.
func (rt *RouteTable) NextHop(src, dst int) int { return int(rt.next[src*rt.n+dst]) }

// NextHops returns src's row of the table: entry dst is NextHop(src, dst).
// The row is the table's own storage and must not be modified.
func (rt *RouteTable) NextHops(src int) []int32 { return rt.next[src*rt.n : (src+1)*rt.n] }

// HopCount returns the minimal hop count between src and dst (-1 when
// unreachable). It walks the route: each next hop is one hop closer.
func (rt *RouteTable) HopCount(src, dst int) int {
	h := 0
	for v := src; v != dst; h++ {
		if v = int(rt.next[v*rt.n+dst]); v < 0 {
			return -1
		}
	}
	return h
}

// CheckReachable verifies that every ordered pair of the given nodes has a
// route, returning a descriptive error for the first partitioned pair — the
// check the fault-recovery path runs after removing failed modules, so an
// unreachable destination surfaces as an error instead of a simulator
// deadlock.
func (rt *RouteTable) CheckReachable(nodes []int) error {
	for _, v := range nodes {
		if v < 0 || v >= rt.n {
			return fmt.Errorf("topology: node %d outside graph of %d nodes", v, rt.n)
		}
	}
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			if rt.NextHop(src, dst) == -1 {
				return fmt.Errorf("topology: no route %d->%d (network partitioned)", src, dst)
			}
		}
	}
	return nil
}

// Diameter returns the largest finite hop count in the network.
func (rt *RouteTable) Diameter() int {
	d := 0
	for src := 0; src < rt.n; src++ {
		for dst := 0; dst < rt.n; dst++ {
			d = max(d, rt.HopCount(src, dst))
		}
	}
	return d
}

// LinkClassOf returns the class of the directed edge a→b. It panics when
// the edge does not exist (a routing bug).
func (rt *RouteTable) LinkClassOf(a, b int) LinkClass {
	for _, e := range rt.g.Adj[a] {
		if e.To == b {
			return e.Class
		}
	}
	panic("topology: LinkClassOf on a non-edge")
}
