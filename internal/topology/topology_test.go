package topology

import (
	"testing"
	"testing/quick"

	"math/rand"
)

func TestRing(t *testing.T) {
	g := Ring(8)
	for v := 0; v < 8; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("ring node %d degree %d", v, g.Degree(v))
		}
	}
	rt := BuildRoutes(g)
	if rt.Diameter() != 4 {
		t.Fatalf("ring-8 diameter %d, want 4", rt.Diameter())
	}
	// Minimal routing goes the short way around.
	if rt.HopCount(0, 7) != 1 || rt.HopCount(0, 4) != 4 {
		t.Fatal("ring hop counts wrong")
	}
}

func TestRingSingleNode(t *testing.T) {
	g := Ring(1)
	if g.Edges() != 0 {
		t.Fatal("1-ring should have no edges")
	}
}

func TestFBFly2D(t *testing.T) {
	g := FBFly2D(4) // the paper's 16-worker cluster
	// Degree: 3 row + 3 column neighbors.
	for v := 0; v < 16; v++ {
		if g.Degree(v) != 6 {
			t.Fatalf("fbfly node %d degree %d, want 6", v, g.Degree(v))
		}
	}
	rt := BuildRoutes(g)
	// The paper: "tile data can be transferred with a maximum of 2 hop count".
	if rt.Diameter() != 2 {
		t.Fatalf("fbfly diameter %d, want 2", rt.Diameter())
	}
}

func TestLinkClassBandwidth(t *testing.T) {
	if Full.Bandwidth() != 30e9 || Host.Bandwidth() != 30e9 {
		t.Fatal("full/host bandwidth wrong")
	}
	if Narrow.Bandwidth() != 10e9 {
		t.Fatal("narrow bandwidth wrong")
	}
	if Full.String() != "full" || Narrow.String() != "narrow" || Host.String() != "host" {
		t.Fatal("class names wrong")
	}
}

func TestHybrid16x16(t *testing.T) {
	g := Hybrid(16, 16, false)
	if g.N != 256 {
		t.Fatalf("N = %d", g.N)
	}
	rt := BuildRoutes(g)
	// Everything reachable.
	for dst := 0; dst < g.N; dst++ {
		if dst != 0 && rt.HopCount(0, dst) <= 0 {
			t.Fatalf("node %d unreachable", dst)
		}
	}
	// Within a cluster (same c, varying g) the FBFLY gives ≤2 hops.
	for grp := 1; grp < 16; grp++ {
		h := rt.HopCount(WorkerID(0, 3, 16), WorkerID(grp, 3, 16))
		if h > 2 {
			t.Fatalf("intra-cluster hop count %d > 2", h)
		}
	}
	// Ring edges within a group are Full links.
	class := rt.LinkClassOf(WorkerID(2, 0, 16), WorkerID(2, 1, 16))
	if class != Full {
		t.Fatalf("group ring link class %v", class)
	}
	// Cluster edges are Narrow links.
	class = rt.LinkClassOf(WorkerID(0, 5, 16), WorkerID(1, 5, 16))
	if class != Narrow {
		t.Fatalf("cluster link class %v", class)
	}
}

func TestHybrid4x64HostBridging(t *testing.T) {
	g := Hybrid(4, 64, true)
	rt := BuildRoutes(g)
	// Each 64-long ring must contain host-class links: one per physical
	// group boundary (64·4/16 = 16-worker spans → 4 host links per ring).
	hostLinks := 0
	for c := 0; c < 64; c++ {
		a := WorkerID(0, c, 64)
		b := WorkerID(0, (c+1)%64, 64)
		if rt.LinkClassOf(a, b) == Host {
			hostLinks++
		}
	}
	if hostLinks != 4 {
		t.Fatalf("host links per ring = %d, want 4", hostLinks)
	}
	// 4-worker clusters are fully connected: 1 hop.
	for grp := 1; grp < 4; grp++ {
		if h := rt.HopCount(WorkerID(0, 9, 64), WorkerID(grp, 9, 64)); h != 1 {
			t.Fatalf("4-cluster hop %d, want 1", h)
		}
	}
}

func TestHybrid1x256IsRing(t *testing.T) {
	g := Hybrid(1, 256, true)
	rt := BuildRoutes(g)
	if rt.Diameter() != 128 {
		t.Fatalf("1x256 diameter %d, want 128", rt.Diameter())
	}
	for v := 0; v < g.N; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("node %d degree %d", v, g.Degree(v))
		}
	}
}

func TestAddBidirectionalDedup(t *testing.T) {
	g := NewGraph(3)
	g.AddBidirectional(0, 1, Full)
	g.AddBidirectional(0, 1, Narrow) // duplicate must be ignored
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatal("duplicate edge not ignored")
	}
	g.AddBidirectional(2, 2, Full) // self loop ignored
	if g.Degree(2) != 0 {
		t.Fatal("self loop added")
	}
}

// Property: routes computed by BuildRoutes are consistent — following
// NextHop from src decreases the distance by exactly 1 each step.
func TestRoutesAreMinimalPaths(t *testing.T) {
	f := func(seed uint64) bool {
		r := seed
		next := func(n int) int {
			r += 0x9e3779b97f4a7c15
			z := r
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			return int((z ^ (z >> 27)) % uint64(n))
		}
		ngChoices := []int{1, 4, 16}
		ng := ngChoices[next(3)]
		nc := []int{4, 8, 16}[next(3)]
		g := Hybrid(ng, nc, next(2) == 0)
		rt := BuildRoutes(g)
		src, dst := next(g.N), next(g.N)
		if src == dst {
			return true
		}
		v := src
		steps := 0
		for v != dst {
			nh := rt.NextHop(v, dst)
			if nh < 0 {
				return false
			}
			if rt.HopCount(nh, dst) != rt.HopCount(v, dst)-1 {
				return false
			}
			v = nh
			steps++
			if steps > g.N {
				return false
			}
		}
		return steps == rt.HopCount(src, dst)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestBuildRoutesAllocations pins BuildRoutes to its output: the table,
// one next-hop and one distance row per source, and one BFS predecessor
// array and queue shared by every source.
func TestBuildRoutesAllocations(t *testing.T) {
	g := Hybrid(16, 16, false)
	want := float64(2*g.N + 5)
	if a := testing.AllocsPerRun(3, func() { BuildRoutes(g) }); a > want {
		t.Fatalf("BuildRoutes on %d nodes: %v allocations, want at most %v", g.N, a, want)
	}
}

func TestFbflySide(t *testing.T) {
	if fbflySide(16) != 4 {
		t.Fatalf("fbflySide(16) = %d", fbflySide(16))
	}
	if fbflySide(8) != 2 {
		t.Fatalf("fbflySide(8) = %d", fbflySide(8))
	}
}
