package noc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"mptwino/internal/fault"
	"mptwino/internal/topology"
)

// msgRecord is the per-message observable outcome the digests pin: if any
// flit-level event reordered, delivery times or retry counts would shift
// and the digest would move.
type msgRecord struct {
	ID, Src, Dst, Bytes, Tag, Retries int
	InjectedAt, DeliveredAt           int64
}

// runDeterminism executes one scenario and returns the run's stats plus
// every message's observable outcome. With a non-nil between the run is
// driven through Step, as a co-simulator drives it, and between runs after
// every Step, so a scenario can act on the network between two cycles.
func runDeterminism(t *testing.T, build func() (*topology.Graph, Config, Driver, *fault.Plan), between func(*Network)) (Stats, []msgRecord) {
	t.Helper()
	g, cfg, d, plan := build()
	n := New(g, cfg)
	if plan != nil {
		if err := n.AttachFaults(plan); err != nil {
			t.Fatal(err)
		}
	}
	var st Stats
	if between == nil {
		var err error
		if st, err = n.Run(d, 50_000_000); err != nil {
			t.Fatal(err)
		}
	} else {
		d.Start(n)
		for !n.Idle() || !d.Done() {
			if n.Now() >= 50_000_000 {
				t.Fatal("stepped run did not drain")
			}
			n.Step(d)
			if err := n.LostErr(); err != nil {
				t.Fatal(err)
			}
			between(n)
		}
		st = n.stats()
	}
	msgs := make([]msgRecord, len(n.messages))
	for i, m := range n.messages {
		msgs[i] = msgRecord{
			ID: m.ID, Src: m.Src, Dst: m.Dst, Bytes: m.Bytes, Tag: m.Tag,
			Retries: m.Retries, InjectedAt: m.InjectedAt, DeliveredAt: m.DeliveredAt,
		}
	}
	return st, msgs
}

// outcomeDigest hashes a run's Stats and per-message records — every
// simulated outcome the cycle loop produces — into a short golden string.
func outcomeDigest(st Stats, msgs []msgRecord) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", st)
	for _, m := range msgs {
		fmt.Fprintf(h, "%+v\n", m)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func members(k int) []int {
	m := make([]int, k)
	for i := range m {
		m[i] = i
	}
	return m
}

// membersBut returns 0..k-1 without the listed nodes.
func membersBut(k int, out ...int) []int {
	var m []int
	for v := 0; v < k; v++ {
		if !slices.Contains(out, v) {
			m = append(m, v)
		}
	}
	return m
}

// nodeFailureScenario kills node 15 of an FBFLY early; the all-to-all among
// nodes 0..11 avoids it, reroutes and completes.
func nodeFailureScenario() (*topology.Graph, Config, Driver, *fault.Plan) {
	plan := fault.NewPlan(7).FailNode(15, 200)
	return topology.FBFly2D(4), DefaultConfig(),
		&AllToAll{Members: members(12), Bytes: 2048}, plan
}

// hybridTraffic is the paper's concurrent mixture on Hybrid(ng, nc): a ring
// collective per group on full links plus an all-to-all per cluster on
// narrow links, with ring and pair sizes cycling through eight steps.
func hybridTraffic(ng, nc int) Driver {
	var ds []Driver
	for grp := 0; grp < ng; grp++ {
		ring := make([]int, nc)
		for c := range ring {
			ring[c] = topology.WorkerID(grp, c, nc)
		}
		ds = append(ds, &RingCollective{Members: ring, Bytes: 256 + 32*(grp%8)})
	}
	for c := 0; c < nc; c++ {
		cluster := make([]int, ng)
		for grp := range cluster {
			cluster[grp] = topology.WorkerID(grp, c, nc)
		}
		ds = append(ds, &AllToAll{Members: cluster, Bytes: 32 + 4*(c%8)})
	}
	return NewMultiDriver(ds...)
}

// TestParallelStepBitIdentical pins the cycle loop's outcomes: for every
// scenario (collectives, all-to-all with randomized routing, hotspots,
// concurrent traffic, link faults with retransmission, module failures)
// the digest of the full Stats and per-message event times must equal the
// recorded golden. The first thirteen digests were recorded when the loop
// could also run sharded across goroutines, and every shard count matched
// them; the other seven (the Step-driven failures, the ring reroute of
// queued transit flits, the closing SerDes window and the
// mixed-generation hybrid run) were recorded on the sequential loop that
// visited every link each cycle, before busy-router visits and lazy
// cursors replaced it. Any change to arbitration, arrival or ejection
// order moves a digest, so a rewrite of the cycle loop that keeps them all
// has changed no simulated outcome.
func TestParallelStepBitIdentical(t *testing.T) {
	scenarios := []struct {
		name    string
		digest  string
		build   func() (*topology.Graph, Config, Driver, *fault.Plan)
		between func(*Network) // set: driven through Step (runDeterminism)
	}{
		{"ring-collective", "aec575d4963640ca", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			return topology.Ring(16), DefaultConfig(),
				&RingCollective{Members: members(16), Bytes: 16 * 1024}, nil
		}, nil},
		{"fbfly-alltoall", "b58853854d981749", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			return topology.FBFly2D(4), DefaultConfig(),
				&AllToAll{Members: members(16), Bytes: 2048}, nil
		}, nil},
		{"fbfly-alltoall-random-seed7", "97071d6d2c21a051", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			cfg := DefaultConfig()
			cfg.RandomFirstHop = true
			cfg.Seed = 7
			return topology.FBFly2D(4), cfg, &AllToAll{Members: members(16), Bytes: 2048}, nil
		}, nil},
		{"fbfly-alltoall-random-seed99", "d30545d95b22d048", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			cfg := DefaultConfig()
			cfg.RandomFirstHop = true
			cfg.Seed = 99
			return topology.FBFly2D(4), cfg, &AllToAll{Members: members(16), Bytes: 2048}, nil
		}, nil},
		{"hotspot", "78581cab34a2b58d", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			return topology.FBFly2D(4), DefaultConfig(),
				&Hotspot{Members: members(16), Dst: 5, Bytes: 4096}, nil
		}, nil},
		{"multi-driver", "45f5244388c844c1", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			return topology.Ring(16), DefaultConfig(), NewMultiDriver(
				&RingCollective{Members: members(8), Bytes: 4096},
				&Hotspot{Members: []int{8, 9, 10, 11}, Dst: 9, Bytes: 2048},
			), nil
		}, nil},
		{"link-faults-with-retransmit", "4f36763283a38f2a", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			plan := fault.NewPlan(42).
				DegradeLink(0, 1, 0, 0, 0.25, 10).
				DropOnLink(2, 3, 0, 5000, 0.2)
			return topology.FBFly2D(4), DefaultConfig(),
				&AllToAll{Members: members(16), Bytes: 1024}, plan
		}, nil},
		{"fleet-profiles-with-drops", "658a5a525d528809", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			plan := fault.MixedGenerationPlan(42, 16, 0.7, 0.5).
				DropOnLink(2, 3, 0, 5000, 0.2)
			return topology.FBFly2D(4), DefaultConfig(),
				&AllToAll{Members: members(16), Bytes: 1024}, plan
		}, nil},
		// The perfbench noc-hybrid traffic (sizes undealt).
		{"hybrid-16x16-rings-and-alltoalls", "4fde99d958c7ec42", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			return topology.Hybrid(16, 16, false), DefaultConfig(), hybridTraffic(16, 16), nil
		}, nil},
		// The Table III 4 KB all-to-all behind BenchmarkNoCAllToAll and
		// BenchmarkAblationAdaptiveRouting: congested enough that link
		// pipelines back up by over a thousand flits.
		{"fbfly-alltoall-4k", "f79d7ee42d96b240", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			return topology.FBFly2D(4), DefaultConfig(),
				&AllToAll{Members: members(16), Bytes: 4096}, nil
		}, nil},
		{"fbfly-alltoall-4k-random-seed7", "b4941ff8edacc9b2", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			cfg := DefaultConfig()
			cfg.RandomFirstHop = true
			cfg.Seed = 7
			return topology.FBFly2D(4), cfg, &AllToAll{Members: members(16), Bytes: 4096}, nil
		}, nil},
		{"node-failure-fbfly", "12fd24ddd7054d11", nodeFailureScenario, nil},
		// TestNodeFailureReroutes' run: node 2 dies under a 0->4 transfer.
		{"node-failure-ring-reroute", "14b675c2be8f12a9", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			return topology.Ring(8), DefaultConfig(),
				&singleMessage{src: 0, dst: 4, bytes: 3000}, fault.NewPlan(5).FailNode(2, 40)
		}, nil},
		// Node 1's own 1->3 traffic keeps link 1->2 busy, so 0->4 flits
		// queue in node 1's port; when node 2 dies they reroute the long
		// way round, through node 1's link back to node 0.
		{"ring-failure-reroutes-queued-transit", "a5420b186307be3b", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			return topology.Ring(8), DefaultConfig(), NewMultiDriver(
				&singleMessage{src: 0, dst: 4, bytes: 3000},
				&singleMessage{src: 1, dst: 3, bytes: 6000},
			), fault.NewPlan(5).FailNode(2, 40)
		}, nil},
		// FailNode called between two Steps, as a co-simulator may: node
		// 5 carries transit traffic of the all-to-all among the other 15
		// nodes, and its neighbours' arbitration lists shrink mid-run.
		{"stepped-failnode-fbfly", "e8c39a172b21c0ac", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			return topology.FBFly2D(4), DefaultConfig(), &AllToAll{Members: membersBut(16, 5), Bytes: 2048}, nil
		}, func(n *Network) {
			if n.Now() == 150 {
				n.FailNode(5)
			}
		}},
		// Two failures in one gap: nodes 6 and 9 neighbour both, so their
		// port lists shrink twice before their links arbitrate again.
		{"stepped-failnode-pair-fbfly", "56a452c6751d42cd", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			return topology.FBFly2D(4), DefaultConfig(), &AllToAll{Members: membersBut(16, 5, 10), Bytes: 2048}, nil
		}, func(n *Network) {
			if n.Now() == 97 {
				n.FailNode(5)
				n.FailNode(10)
			}
		}},
		// FailNode between Steps while the failed node's neighbours
		// 4, 6, 7, 9 and 13 idle (only row 0 talks at first); a second
		// all-to-all among the surviving idle nodes starts 20 cycles
		// later, so their links arbitrate with cursors carried across
		// the failure.
		{"stepped-failnode-idle-neighbours", "d2926c7e5ba998d5", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			return topology.FBFly2D(4), DefaultConfig(), NewMultiDriver(&AllToAll{Members: members(4), Bytes: 2048}), nil
		}, func(n *Network) {
			switch n.Now() {
			case 40:
				n.FailNode(5)
			case 60:
				second := &AllToAll{Members: membersBut(16, 0, 1, 2, 3, 5), Bytes: 1024}
				second.Start(n)
			}
		}},
		// Two failures one cycle apart beside node 5, whose links run at
		// half speed and so send nothing on every other cycle: a cursor
		// the first failure leaves past the end of its shortened list must
		// stay unreduced through such a cycle, and the second failure then
		// reduces it once, modulo the final length.
		{"stepped-failnode-pair-beside-derated", "b9816af4187624c6", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			plan := fault.NewPlan(1).ProfileModule(fault.ModuleProfile{Module: 5, LinkScale: 0.5})
			return topology.FBFly2D(4), DefaultConfig(), &AllToAll{Members: membersBut(16, 4, 6), Bytes: 512}, plan
		}, func(n *Network) {
			switch n.Now() {
			case 12:
				n.FailNode(4)
			case 13:
				n.FailNode(6)
			}
		}},
		// A SerDes fault window that closes mid-transfer: link 0->1 sends
		// the 600 B message's flits in cycles 1-20, all but the last at
		// 35 cycles a hop, so the 30 B one injected at cycle 25, at 5
		// cycles a hop, overtakes them and is delivered first.
		{"serdes-window-closes", "279d26b3da9b32be", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			g := topology.NewGraph(2)
			g.AddBidirectional(0, 1, topology.Full)
			return g, DefaultConfig(), NewMultiDriver(&singleMessage{src: 0, dst: 1, bytes: 600}),
				fault.NewPlan(1).DegradeLink(0, 1, 0, 20, 0, 30)
		}, func(n *Network) {
			if n.Now() == 25 {
				n.Inject(&Message{Src: 0, Dst: 1, Bytes: 30})
			}
		}},
		// The noc-hybrid traffic on a mixed-generation fleet (modules
		// 128-255 at half link speed, so their routers' links run on
		// fractional credit every cycle) with drops on node 0's ring
		// injection link.
		{"hybrid-16x16-mixed-generation-with-drops", "fa8c505d5dd3b3d5", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			plan := fault.MixedGenerationPlan(42, 256, 0.7, 0.5).
				DropOnLink(0, 1, 0, 2000, 0.2)
			return topology.Hybrid(16, 16, false), DefaultConfig(), hybridTraffic(16, 16), plan
		}, nil},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			st, msgs := runDeterminism(t, sc.build, sc.between)
			if st.Cycles == 0 {
				t.Fatal("run did no work")
			}
			if got := outcomeDigest(st, msgs); got != sc.digest {
				t.Errorf("outcome digest %s, golden %s\nstats: %+v", got, sc.digest, st)
			}
		})
	}
}
