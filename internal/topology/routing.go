package topology

import "fmt"

// RouteTable holds minimal-routing next hops: Next[src][dst] is the
// neighbor src forwards to on a minimal path toward dst (Table III:
// "Routing: Minimal"). Ties break toward the lowest-numbered neighbor,
// which keeps routes deterministic across runs.
type RouteTable struct {
	g    *Graph
	Next [][]int32
	Dist [][]int32
}

// BuildRoutes computes all-pairs minimal routes with one BFS per source.
// For the ≤256-node fabrics of the paper this is instantaneous.
func BuildRoutes(g *Graph) *RouteTable {
	rt := &RouteTable{
		g:    g,
		Next: make([][]int32, g.N),
		Dist: make([][]int32, g.N),
	}
	// The BFS scratch is shared by every source: each BFS visits a node
	// at most once, so the queue never holds more than g.N entries.
	pred := make([]int32, g.N)
	queue := make([]int, 0, g.N)
	for src := 0; src < g.N; src++ {
		next := make([]int32, g.N)
		dist := make([]int32, g.N)
		for i := range next {
			next[i] = -1
			dist[i] = -1
			pred[i] = -1
		}
		dist[src] = 0
		// BFS from src; record each node's predecessor, then walk back to
		// find the first hop.
		queue = append(queue[:0], src)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, e := range g.Adj[v] {
				if dist[e.To] == -1 {
					dist[e.To] = dist[v] + 1
					pred[e.To] = int32(v)
					queue = append(queue, e.To)
				}
			}
		}
		for dst := 0; dst < g.N; dst++ {
			if dst == src || dist[dst] == -1 {
				continue
			}
			hop := int32(dst)
			for pred[hop] != int32(src) {
				hop = pred[hop]
			}
			next[dst] = hop
		}
		rt.Next[src] = next
		rt.Dist[src] = dist
	}
	return rt
}

// NextHop returns the neighbor src forwards to for dst, or -1 when dst is
// src or unreachable.
func (rt *RouteTable) NextHop(src, dst int) int { return int(rt.Next[src][dst]) }

// HopCount returns the minimal hop count between src and dst (-1 when
// unreachable).
func (rt *RouteTable) HopCount(src, dst int) int { return int(rt.Dist[src][dst]) }

// CheckReachable verifies that every ordered pair of the given nodes has a
// route, returning a descriptive error for the first partitioned pair — the
// check the fault-recovery path runs after removing failed modules, so an
// unreachable destination surfaces as an error instead of a simulator
// deadlock.
func (rt *RouteTable) CheckReachable(nodes []int) error {
	for _, v := range nodes {
		if v < 0 || v >= rt.g.N {
			return fmt.Errorf("topology: node %d outside graph of %d nodes", v, rt.g.N)
		}
	}
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			if rt.Dist[src][dst] == -1 {
				return fmt.Errorf("topology: no route %d->%d (network partitioned)", src, dst)
			}
		}
	}
	return nil
}

// Diameter returns the largest finite hop count in the network.
func (rt *RouteTable) Diameter() int {
	var d int32
	for _, row := range rt.Dist {
		for _, v := range row {
			if v > d {
				d = v
			}
		}
	}
	return int(d)
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
