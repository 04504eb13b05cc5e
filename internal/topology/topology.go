// Package topology builds the memory-centric network graphs of Section IV:
// rings for weight collectives, 2-D flattened butterflies (FBFLY) for tile
// transfer inside clusters, and the hybrid group/cluster fabric with the
// three dynamic-clustering wirings (host links bridging groups). It also
// computes minimal-routing tables used by the flit-level simulator.
package topology

import "fmt"

// LinkClass distinguishes the paper's physical link types (Table III).
type LinkClass int

const (
	// Full is a full-width link: 16 lanes × 15 Gbps = 30 GB/s/direction,
	// used by the collective rings.
	Full LinkClass = iota
	// Narrow is a narrow link: 8 lanes × 10 Gbps = 10 GB/s/direction, used
	// by the FBFLY inside clusters.
	Narrow
	// Host is connectivity routed through the host processor, used by
	// dynamic clustering to splice groups together; same width as Full but
	// with an extra SerDes hop of latency.
	Host
)

// Bandwidth returns the link's one-direction bandwidth in bytes per second.
func (c LinkClass) Bandwidth() float64 {
	switch c {
	case Narrow:
		return 10e9
	default:
		return 30e9
	}
}

// String names the class.
func (c LinkClass) String() string {
	switch c {
	case Full:
		return "full"
	case Narrow:
		return "narrow"
	case Host:
		return "host"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Edge is one directed link.
type Edge struct {
	To    int
	Class LinkClass
}

// Graph is a directed multigraph over N worker nodes. All builders emit
// symmetric (bidirectional) connectivity.
type Graph struct {
	N   int
	Adj [][]Edge
}

// NewGraph allocates an edgeless graph of n nodes.
func NewGraph(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("topology: invalid node count %d", n))
	}
	return &Graph{N: n, Adj: make([][]Edge, n)}
}

// AddBidirectional inserts links a→b and b→a of the given class. Duplicate
// links between the same pair are ignored (the builders may generate the
// same FBFLY edge from both endpoints).
func (g *Graph) AddBidirectional(a, b int, class LinkClass) {
	if a == b {
		return
	}
	g.addDirected(a, b, class)
	g.addDirected(b, a, class)
}

func (g *Graph) addDirected(a, b int, class LinkClass) {
	for _, e := range g.Adj[a] {
		if e.To == b {
			return
		}
	}
	g.Adj[a] = append(g.Adj[a], Edge{To: b, Class: class})
}

// RemoveBidirectional deletes the links a→b and b→a if present. Routing
// tables built before a removal are stale; rebuild with BuildRoutes.
func (g *Graph) RemoveBidirectional(a, b int) {
	g.removeDirected(a, b)
	g.removeDirected(b, a)
}

func (g *Graph) removeDirected(a, b int) {
	adj := g.Adj[a]
	for i, e := range adj {
		if e.To == b {
			g.Adj[a] = append(adj[:i], adj[i+1:]...)
			return
		}
	}
}

// RemoveNode deletes every link touching v, isolating it from the fabric —
// the topology-level effect of a permanent module failure. The node index
// space is preserved so worker ids stay stable; v simply becomes an island
// with degree 0. Routing tables must be rebuilt afterwards.
func (g *Graph) RemoveNode(v int) {
	for _, e := range g.Adj[v] {
		g.removeDirected(e.To, v)
	}
	g.Adj[v] = nil
}

// Clone returns a deep copy of the graph, so fault scenarios can mutate a
// working copy while the pristine wiring stays available for recovery
// planning.
func (g *Graph) Clone() *Graph {
	out := NewGraph(g.N)
	for v, adj := range g.Adj {
		out.Adj[v] = append([]Edge(nil), adj...)
	}
	return out
}

// Degree returns node v's out-degree.
func (g *Graph) Degree(v int) int { return len(g.Adj[v]) }

// Edges returns the total directed edge count.
func (g *Graph) Edges() int {
	n := 0
	for _, a := range g.Adj {
		n += len(a)
	}
	return n
}

// Ring builds a bidirectional ring of n nodes with Full links — the
// data-parallel baseline's collective fabric.
func Ring(n int) *Graph {
	g := NewGraph(n)
	if n == 1 {
		return g
	}
	for i := 0; i < n; i++ {
		g.AddBidirectional(i, (i+1)%n, Full)
	}
	return g
}

// FBFly2D builds a 2-D flattened butterfly over side×side nodes: every
// node links to all nodes sharing its row and all sharing its column, so
// any pair is at most 2 hops apart — the all-to-all fabric the paper uses
// for 16-worker clusters.
func FBFly2D(side int) *Graph {
	n := side * side
	g := NewGraph(n)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := r*side + c
			for c2 := c + 1; c2 < side; c2++ {
				g.AddBidirectional(v, r*side+c2, Narrow)
			}
			for r2 := r + 1; r2 < side; r2++ {
				g.AddBidirectional(v, r2*side+c, Narrow)
			}
		}
	}
	return g
}

// WorkerID maps (group, cluster) coordinates to the node index used by all
// hybrid builders: group-major, so group g's ring is the contiguous block
// [g·nc, (g+1)·nc).
func WorkerID(g, c, nc int) int { return g*nc + c }

// Hybrid builds the MPT fabric for ng groups × nc clusters:
//
//   - a Full-link ring over the nc workers of each group (weight
//     collectives), and
//   - a Narrow-link cluster fabric over the ng workers of each cluster
//     (tile transfer): a 4×4 FBFLY when ng = 16, fully connected when
//     2 ≤ ng ≤ 4, nothing when ng = 1.
//
// hostBridged marks the ring links that dynamic clustering realizes through
// the host (when the physical system is wired as 16 groups but configured
// with fewer): for ng < 16 every nc/16-th... — concretely, with the paper's
// fixed physical wiring the spliced ring crosses the host once per physical
// group boundary, which we mark as Host-class links at those positions.
func Hybrid(ng, nc int, hostBridged bool) *Graph {
	p := ng * nc
	g := NewGraph(p)
	// Rings within groups.
	physGroups := 16 // the machine is physically wired as 16 groups
	for grp := 0; grp < ng; grp++ {
		if nc == 1 {
			continue
		}
		for c := 0; c < nc; c++ {
			a := WorkerID(grp, c, nc)
			b := WorkerID(grp, (c+1)%nc, nc)
			class := Full
			if hostBridged && ng < physGroups && physGroups%ng == 0 {
				// The spliced ring crosses the host every nc·ng/16 workers
				// (once per physical group traversed).
				span := nc * ng / physGroups
				if span > 0 && (c+1)%span == 0 {
					class = Host
				}
			}
			g.AddBidirectional(a, b, class)
		}
	}
	// Cluster fabric across groups.
	switch {
	case ng >= 5:
		// FBFLY over a near-square factorization of ng (4×4 for 16).
		side := fbflySide(ng)
		for c := 0; c < nc; c++ {
			for r1 := 0; r1 < ng/side; r1++ {
				for c1 := 0; c1 < side; c1++ {
					v := r1*side + c1
					for c2 := c1 + 1; c2 < side; c2++ {
						g.AddBidirectional(WorkerID(v, c, nc), WorkerID(r1*side+c2, c, nc), Narrow)
					}
					for r2 := r1 + 1; r2 < ng/side; r2++ {
						g.AddBidirectional(WorkerID(v, c, nc), WorkerID(r2*side+c1, c, nc), Narrow)
					}
				}
			}
		}
	case ng >= 2:
		for c := 0; c < nc; c++ {
			for a := 0; a < ng; a++ {
				for b := a + 1; b < ng; b++ {
					g.AddBidirectional(WorkerID(a, c, nc), WorkerID(b, c, nc), Narrow)
				}
			}
		}
	}
	return g
}

// fbflySide returns the largest factor of ng not exceeding √ng, giving the
// most square FBFLY arrangement.
func fbflySide(ng int) int {
	best := 1
	for s := 1; s*s <= ng; s++ {
		if ng%s == 0 {
			best = s
		}
	}
	return best
}
