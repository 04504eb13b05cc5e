package noc

import (
	"reflect"
	"strings"
	"testing"

	"mptwino/internal/fault"
	"mptwino/internal/topology"
)

func TestConfigValidate(t *testing.T) {
	base := DefaultConfig()
	if err := base.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	mutations := map[string]func(*Config){
		"zero flit":        func(c *Config) { c.FlitBytes = 0 },
		"negative flit":    func(c *Config) { c.FlitBytes = -4 },
		"zero buffer":      func(c *Config) { c.BufferFlits = 0 },
		"zero clock":       func(c *Config) { c.ClockHz = 0 },
		"negative serdes":  func(c *Config) { c.SerDesCycles = -1 },
		"negative host":    func(c *Config) { c.HostExtra = -1 },
		"negative timeout": func(c *Config) { c.RetryTimeout = -1 },
		"negative retries": func(c *Config) { c.MaxRetries = -1 },
	}
	for name, mutate := range mutations {
		c := base
		mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.HasPrefix(err.Error(), "noc: ") {
			t.Errorf("%s: error %q lacks package prefix", name, err)
		}
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted FlitBytes=0")
		}
	}()
	cfg := DefaultConfig()
	cfg.FlitBytes = 0
	New(topology.Ring(4), cfg)
}

func TestDriversRejectInvalidConfig(t *testing.T) {
	g := topology.Ring(4)
	n := New(g, DefaultConfig())
	n.Cfg.BufferFlits = 0 // corrupt after construction
	for name, d := range map[string]Driver{
		"ring":     &RingCollective{Members: []int{0, 1, 2}, Bytes: 30},
		"alltoall": &AllToAll{Members: []int{0, 1}, Bytes: 30},
		"hotspot":  &Hotspot{Members: []int{0, 1}, Dst: 0, Bytes: 30},
		"multi":    NewMultiDriver(&AllToAll{Members: []int{0, 1}, Bytes: 30}),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s driver started on an invalid config", name)
				}
			}()
			d.Start(n)
		}()
	}
}

// faultRun builds a ring-8 network with the plan attached and runs one
// message through it.
func faultRun(t *testing.T, plan *fault.Plan, src, dst, bytes int, maxCycles int64) (Stats, error) {
	t.Helper()
	n := New(topology.Ring(8), DefaultConfig())
	if plan != nil {
		if err := n.AttachFaults(plan); err != nil {
			t.Fatal(err)
		}
	}
	return n.Run(&singleMessage{src: src, dst: dst, bytes: bytes}, maxCycles)
}

func TestDropRetransmitCompletes(t *testing.T) {
	plan := fault.NewPlan(42).DropOnLink(0, 1, 0, 0, 0.3)
	st, err := faultRun(t, plan, 0, 1, 300, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if st.DroppedFlits == 0 {
		t.Fatal("no flits dropped under DropProb=0.3")
	}
	if st.Retransmits == 0 {
		t.Fatal("drops recovered without retransmissions")
	}
	if st.MaxMsgRetries < 1 {
		t.Fatal("per-message retry counter not surfaced")
	}
	healthy, err := faultRun(t, nil, 0, 1, 300, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles <= healthy.Cycles {
		t.Fatalf("faulty run (%d cycles) not slower than healthy (%d)", st.Cycles, healthy.Cycles)
	}
}

// TestFaultDeterminism: identical plan + seed must give byte-identical
// stats — the fault model's core contract.
func TestFaultDeterminism(t *testing.T) {
	run := func() Stats {
		plan := fault.NewPlan(7).
			DropOnLink(0, 1, 0, 0, 0.25).
			DegradeLink(1, 2, 100, 4000, 0.5, 2)
		st, err := faultRun(t, plan, 0, 2, 600, 200000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same plan+seed diverged:\n%+v\n%+v", a, b)
	}
	plan := fault.NewPlan(8).DropOnLink(0, 1, 0, 0, 0.25).DegradeLink(1, 2, 100, 4000, 0.5, 2)
	c, err := faultRun(t, plan, 0, 2, 600, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seed produced identical stats (suspicious)")
	}
}

func TestRetryExhaustionErrors(t *testing.T) {
	g := topology.NewGraph(2)
	g.AddBidirectional(0, 1, topology.Full)
	cfg := DefaultConfig()
	cfg.MaxRetries = 2
	n := New(g, cfg)
	if err := n.AttachFaults(fault.NewPlan(1).DropOnLink(0, 1, 0, 0, 1.0)); err != nil {
		t.Fatal(err)
	}
	_, err := n.Run(&singleMessage{src: 0, dst: 1, bytes: 30}, 1_000_000)
	if err == nil {
		t.Fatal("total flit loss delivered a message")
	}
	if !strings.Contains(err.Error(), "retries exhausted") {
		t.Fatalf("error %q does not name retry exhaustion", err)
	}
	// The abort fires after (MaxRetries+1) timeout windows, not at maxCycles.
	if n.Now() > (int64(cfg.MaxRetries)+2)*cfg.RetryTimeout+100 {
		t.Fatalf("exhaustion detected only at cycle %d (spun instead of aborting)", n.Now())
	}
}

func TestDegradedBandwidthSlows(t *testing.T) {
	healthy, err := faultRun(t, nil, 0, 1, 3000, 200000)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(3).DegradeLink(0, 1, 0, 0, 0.25, 0)
	slow, err := faultRun(t, plan, 0, 1, 3000, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if slow.DroppedFlits != 0 || slow.Retransmits != 0 {
		t.Fatal("pure degradation dropped flits")
	}
	if float64(slow.Cycles) < 2.5*float64(healthy.Cycles) {
		t.Fatalf("0.25× bandwidth: %d cycles vs healthy %d (want ≳3.3×)", slow.Cycles, healthy.Cycles)
	}
}

func TestExtraSerDesAddsLatency(t *testing.T) {
	healthy, err := faultRun(t, nil, 0, 1, 10, 10000)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(3).DegradeLink(0, 1, 0, 0, 0, 100) // scale unset, +100 cycles
	slow, err := faultRun(t, plan, 0, 1, 10, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if d := slow.MaxLatency - healthy.MaxLatency; d < 95 || d > 105 {
		t.Fatalf("extra SerDes added %d cycles of latency, want ~100", d)
	}
}

// TestNodeFailureReroutes: a module on the message's path dies mid-
// transfer; the ring reroutes the other way and timeouts recover the
// in-flight flits.
func TestNodeFailureReroutes(t *testing.T) {
	plan := fault.NewPlan(5).FailNode(2, 40)
	st, err := faultRun(t, plan, 0, 4, 3000, 400000)
	if err != nil {
		t.Fatal(err)
	}
	if st.DroppedFlits == 0 {
		t.Fatal("failure at cycle 40 destroyed no in-flight flits (test not exercising transit loss)")
	}
	if st.Retransmits == 0 {
		t.Fatal("transit flit loss recovered without retransmission")
	}
}

// TestFailNodeDropsStrandedTransitFlits: flits a module had already
// delivered into a surviving neighbour's input port leave arbitration with
// the module's links, so FailNode must drop them for retransmission rather
// than strand them (which spun Run to maxCycles). Node 2 dies under 0->4
// while 3->4 keeps node 3's output busy, so 0->4 flits wait in node 3's
// port from node 2. The recovery must be identical at every worker count.
func TestFailNodeDropsStrandedTransitFlits(t *testing.T) {
	for _, at := range []int64{20, 100, 190} {
		var ref Stats
		for _, workers := range []int{1, 2, 8} {
			cfg := DefaultConfig()
			cfg.ShardWorkers = workers
			n := New(topology.Ring(8), cfg)
			if err := n.AttachFaults(fault.NewPlan(5).FailNode(2, at)); err != nil {
				t.Fatal(err)
			}
			st, err := n.Run(NewMultiDriver(
				&singleMessage{src: 0, dst: 4, bytes: 3000},
				&singleMessage{src: 3, dst: 4, bytes: 6000},
			), 200_000)
			if err != nil {
				t.Fatalf("failure at cycle %d, workers=%d: %v", at, workers, err)
			}
			if st.DroppedFlits == 0 || st.Retransmits == 0 {
				t.Fatalf("failure at cycle %d: %d drops, %d retransmits; want the transit flits retransmitted",
					at, st.DroppedFlits, st.Retransmits)
			}
			if workers == 1 {
				ref = st
			} else if !reflect.DeepEqual(ref, st) {
				t.Errorf("failure at cycle %d, workers=%d: stats differ\nseq: %+v\npar: %+v", at, workers, ref, st)
			}
		}
	}
}

// TestPartitionErrorsNotDeadlock: a failure that cuts the only path must
// produce a descriptive error promptly, not a deadlock at maxCycles.
func TestPartitionErrorsNotDeadlock(t *testing.T) {
	line := func() *topology.Graph {
		g := topology.NewGraph(3)
		g.AddBidirectional(0, 1, topology.Full)
		g.AddBidirectional(1, 2, topology.Full)
		return g
	}

	// Mid-run: node 1 dies while 0→2 is in flight.
	n := New(line(), DefaultConfig())
	if err := n.AttachFaults(fault.NewPlan(1).FailNode(1, 5)); err != nil {
		t.Fatal(err)
	}
	_, err := n.Run(&singleMessage{src: 0, dst: 2, bytes: 3000}, 10_000_000)
	if err == nil {
		t.Fatal("partitioned transfer completed")
	}
	if !strings.Contains(err.Error(), "no route") {
		t.Fatalf("error %q does not report the partition", err)
	}
	if n.Now() > 2*n.Cfg.RetryTimeout+100 {
		t.Fatalf("partition reported only at cycle %d (deadlocked until then)", n.Now())
	}

	// Pre-partitioned: injection into a known partition errors immediately.
	n2 := New(line(), DefaultConfig())
	n2.FailNode(1)
	_, err = n2.Run(&singleMessage{src: 0, dst: 2, bytes: 30}, 1000)
	if err == nil || !strings.Contains(err.Error(), "partitioned") {
		t.Fatalf("pre-partitioned inject: err = %v, want partition error", err)
	}

	// CheckReachable surfaces the same condition at the topology layer.
	g := line()
	g.RemoveNode(1)
	rt := topology.BuildRoutes(g)
	if err := rt.CheckReachable([]int{0, 2}); err == nil {
		t.Fatal("CheckReachable missed the partition")
	}
}

// TestScheduledFailureDeterminism: module failures plus drops stay
// deterministic end to end.
func TestScheduledFailureDeterminism(t *testing.T) {
	run := func() Stats {
		plan := fault.NewPlan(11).FailNode(2, 40).DropOnLink(7, 0, 0, 0, 0.1)
		st, err := faultRun(t, plan, 0, 4, 2000, 400000)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("scheduled-failure run diverged:\n%+v\n%+v", a, b)
	}
}

// TestProfileLinkScaleSlows: a module capability profile derates every
// link the module terminates, throttling throughput like a bandwidth
// fault but fleet-wide and without any fault window.
func TestProfileLinkScaleSlows(t *testing.T) {
	healthy, err := faultRun(t, nil, 0, 1, 3000, 200000)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(3).ProfileModule(fault.ModuleProfile{Module: 1, LinkScale: 0.25})
	slow, err := faultRun(t, plan, 0, 1, 3000, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if slow.DroppedFlits != 0 || slow.Retransmits != 0 {
		t.Fatal("capability derating dropped flits")
	}
	if float64(slow.Cycles) < 2.5*float64(healthy.Cycles) {
		t.Fatalf("0.25× link profile: %d cycles vs healthy %d (want ≳3.3×)", slow.Cycles, healthy.Cycles)
	}
	// The slower endpoint gates the link: a profile on the *other* endpoint
	// of the same traffic throttles identically.
	planFrom := fault.NewPlan(3).ProfileModule(fault.ModuleProfile{Module: 0, LinkScale: 0.25})
	slowFrom, err := faultRun(t, planFrom, 0, 1, 3000, 200000)
	if err != nil {
		t.Fatal(err)
	}
	if slowFrom.Cycles != slow.Cycles {
		t.Fatalf("profile on src gave %d cycles, on dst %d — endpoints should gate symmetrically",
			slowFrom.Cycles, slow.Cycles)
	}
}

// TestProfileScaleComposesWithFaults: a profiled link that also suffers a
// bandwidth fault runs at the product of the two scales.
func TestProfileScaleComposesWithFaults(t *testing.T) {
	plan := fault.NewPlan(3).
		ProfileModule(fault.ModuleProfile{Module: 1, LinkScale: 0.5}).
		DegradeLink(0, 1, 0, 0, 0.5, 0)
	both, err := faultRun(t, plan, 0, 1, 3000, 200000)
	if err != nil {
		t.Fatal(err)
	}
	quarter := fault.NewPlan(3).DegradeLink(0, 1, 0, 0, 0.25, 0)
	ref, err := faultRun(t, quarter, 0, 1, 3000, 200000)
	if err != nil {
		t.Fatal(err)
	}
	// Same effective 0.25× rate on the bottleneck link; allow a small
	// difference from the ring's unfaulted reverse path.
	if d := both.Cycles - ref.Cycles; d < -100 || d > 100 {
		t.Fatalf("0.5 profile × 0.5 fault ran %d cycles, 0.25 fault alone %d", both.Cycles, ref.Cycles)
	}
}
