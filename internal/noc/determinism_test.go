package noc

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"mptwino/internal/fault"
	"mptwino/internal/topology"
)

// msgRecord is the per-message observable outcome compared across worker
// counts: if any flit-level event reordered, delivery times or retry
// counts would shift and the comparison would fail.
type msgRecord struct {
	ID, Src, Dst, Bytes, Tag, Retries int
	InjectedAt, DeliveredAt           int64
}

// runDeterminism executes one scenario at the given shard worker count and
// returns the run's stats plus every message's observable outcome.
func runDeterminism(t *testing.T, workers int, build func() (*topology.Graph, Config, Driver, *fault.Plan)) (Stats, []msgRecord) {
	t.Helper()
	g, cfg, d, plan := build()
	cfg.ShardWorkers = workers
	n := New(g, cfg)
	if plan != nil {
		if err := n.AttachFaults(plan); err != nil {
			t.Fatal(err)
		}
	}
	st, err := n.Run(d, 50_000_000)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
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
// recorded golden at worker counts {1, 2, 8}, and the sharded runs must
// match the sequential one field for field. Any change to arbitration,
// arrival or ejection order moves a digest, so a rewrite of the cycle loop
// that keeps them all has changed no simulated outcome.
func TestParallelStepBitIdentical(t *testing.T) {
	scenarios := []struct {
		name   string
		digest string
		build  func() (*topology.Graph, Config, Driver, *fault.Plan)
	}{
		{"ring-collective", "aec575d4963640ca", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			return topology.Ring(16), DefaultConfig(),
				&RingCollective{Members: members(16), Bytes: 16 * 1024}, nil
		}},
		{"fbfly-alltoall", "b58853854d981749", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			return topology.FBFly2D(4), DefaultConfig(),
				&AllToAll{Members: members(16), Bytes: 2048}, nil
		}},
		{"fbfly-alltoall-random-seed7", "97071d6d2c21a051", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			cfg := DefaultConfig()
			cfg.RandomFirstHop = true
			cfg.Seed = 7
			return topology.FBFly2D(4), cfg, &AllToAll{Members: members(16), Bytes: 2048}, nil
		}},
		{"fbfly-alltoall-random-seed99", "d30545d95b22d048", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			cfg := DefaultConfig()
			cfg.RandomFirstHop = true
			cfg.Seed = 99
			return topology.FBFly2D(4), cfg, &AllToAll{Members: members(16), Bytes: 2048}, nil
		}},
		{"hotspot", "78581cab34a2b58d", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			return topology.FBFly2D(4), DefaultConfig(),
				&Hotspot{Members: members(16), Dst: 5, Bytes: 4096}, nil
		}},
		{"multi-driver", "45f5244388c844c1", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			return topology.Ring(16), DefaultConfig(), NewMultiDriver(
				&RingCollective{Members: members(8), Bytes: 4096},
				&Hotspot{Members: []int{8, 9, 10, 11}, Dst: 9, Bytes: 2048},
			), nil
		}},
		{"link-faults-with-retransmit", "4f36763283a38f2a", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			plan := fault.NewPlan(42).
				DegradeLink(0, 1, 0, 0, 0.25, 10).
				DropOnLink(2, 3, 0, 5000, 0.2)
			return topology.FBFly2D(4), DefaultConfig(),
				&AllToAll{Members: members(16), Bytes: 1024}, plan
		}},
		{"fleet-profiles-with-drops", "658a5a525d528809", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			plan := fault.MixedGenerationPlan(42, 16, 0.7, 0.5).
				DropOnLink(2, 3, 0, 5000, 0.2)
			return topology.FBFly2D(4), DefaultConfig(),
				&AllToAll{Members: members(16), Bytes: 1024}, plan
		}},
		// The perfbench noc-hybrid traffic (sizes undealt).
		{"hybrid-16x16-rings-and-alltoalls", "4fde99d958c7ec42", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			return topology.Hybrid(16, 16, false), DefaultConfig(), hybridTraffic(16, 16), nil
		}},
		// The Table III 4 KB all-to-all behind BenchmarkNoCAllToAll and
		// BenchmarkAblationAdaptiveRouting: congested enough that link
		// pipelines back up by over a thousand flits.
		{"fbfly-alltoall-4k", "f79d7ee42d96b240", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			return topology.FBFly2D(4), DefaultConfig(),
				&AllToAll{Members: members(16), Bytes: 4096}, nil
		}},
		{"fbfly-alltoall-4k-random-seed7", "b4941ff8edacc9b2", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			cfg := DefaultConfig()
			cfg.RandomFirstHop = true
			cfg.Seed = 7
			return topology.FBFly2D(4), cfg, &AllToAll{Members: members(16), Bytes: 4096}, nil
		}},
		{"node-failure-fbfly", "12fd24ddd7054d11", nodeFailureScenario},
		// TestNodeFailureReroutes' run: node 2 dies under a 0->4 transfer.
		{"node-failure-ring-reroute", "14b675c2be8f12a9", func() (*topology.Graph, Config, Driver, *fault.Plan) {
			return topology.Ring(8), DefaultConfig(),
				&singleMessage{src: 0, dst: 4, bytes: 3000}, fault.NewPlan(5).FailNode(2, 40)
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			refStats, refMsgs := runDeterminism(t, 1, sc.build)
			if refStats.Cycles == 0 {
				t.Fatal("sequential reference run did no work")
			}
			if got := outcomeDigest(refStats, refMsgs); got != sc.digest {
				t.Errorf("workers=1: outcome digest %s, golden %s\nstats: %+v", got, sc.digest, refStats)
			}
			for _, workers := range []int{2, 8} {
				st, msgs := runDeterminism(t, workers, sc.build)
				if got := outcomeDigest(st, msgs); got != sc.digest {
					t.Errorf("workers=%d: outcome digest %s, golden %s", workers, got, sc.digest)
				}
				if !reflect.DeepEqual(refStats, st) {
					t.Errorf("workers=%d: stats differ\nseq: %+v\npar: %+v", workers, refStats, st)
				}
				if !reflect.DeepEqual(refMsgs, msgs) {
					t.Errorf("workers=%d: per-message outcomes differ (count %d vs %d)",
						workers, len(refMsgs), len(msgs))
					for i := range refMsgs {
						if i < len(msgs) && refMsgs[i] != msgs[i] {
							t.Errorf("  first divergence at message %d:\nseq: %+v\npar: %+v",
								i, refMsgs[i], msgs[i])
							break
						}
					}
				}
			}
		})
	}
}

// TestShardWorkersValidation rejects negative shard counts and accepts the
// sequential settings.
func TestShardWorkersValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ShardWorkers = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative ShardWorkers passed validation")
	}
	for _, w := range []int{0, 1, 8} {
		cfg.ShardWorkers = w
		if err := cfg.Validate(); err != nil {
			t.Fatalf("ShardWorkers=%d rejected: %v", w, err)
		}
	}
}

// TestShardedStepUnderNodeFailure exercises the sequential stage-0 fault
// path (node death, topology mutation, route rebuild) interleaved with
// sharded stages: outcomes must match the sequential path exactly. Traffic
// avoids the dying node so the run completes.
func TestShardedStepUnderNodeFailure(t *testing.T) {
	refStats, refMsgs := runDeterminism(t, 1, nodeFailureScenario)
	for _, workers := range []int{2, 8} {
		st, msgs := runDeterminism(t, workers, nodeFailureScenario)
		if !reflect.DeepEqual(refStats, st) {
			t.Errorf("workers=%d: stats differ under node failure\nseq: %+v\npar: %+v", workers, refStats, st)
		}
		if !reflect.DeepEqual(refMsgs, msgs) {
			t.Errorf("workers=%d: message outcomes differ under node failure", workers)
		}
	}
}
