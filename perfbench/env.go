package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// now is the benchmark's only wall-clock read; every duration it reports
// is the difference of two now() values.
func now() time.Time {
	return time.Now() //nolint:notime -- host wall time is the quantity this benchmark measures; no reading feeds a simulated result
}

// cpuTime returns the process's user+system CPU time. It excludes
// hypervisor steal, so it separates the program's own cost from a busy
// host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// goStats samples the runtime counters the benchmark reports, without the
// stop-the-world that runtime.ReadMemStats costs.
type goStats struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGoStats() goStats {
	metrics.Read(goSamples)
	return goStats{
		allocBytes: goSamples[0].Value.Uint64(),
		gcCycles:   goSamples[1].Value.Uint64(),
		gcCPU:      goSamples[2].Value.Float64(),
		totalCPU:   goSamples[3].Value.Float64(),
	}
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes returns the bytes allocated on the heap so far. It
// allocates nothing itself, so spans can bracket a call with it.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks:
// busy is user + nice + system + irq + softirq, total adds idle, iowait
// and steal.
type cpuStat struct{ busy, steal, total uint64 }

// readCPUStat reads the machine-wide CPU accounting. Steal is time the
// hypervisor ran someone else while one of this VM's vCPUs wanted to run;
// an idle vCPU accrues none.
func readCPUStat() (cpuStat, error) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		var s cpuStat
		// user nice system idle iowait irq softirq steal [guest guest_nice]
		for i, v := range fields[1:9] {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return cpuStat{}, fmt.Errorf("parse /proc/stat: %w", err)
			}
			s.total += n
			switch i {
			case 3, 4: // idle, iowait
			case 7:
				s.steal = n
			default:
				s.busy += n
			}
		}
		return s, nil
	}
	if err := sc.Err(); err != nil {
		return cpuStat{}, err
	}
	return cpuStat{}, fmt.Errorf("/proc/stat has no aggregate cpu line")
}

// stealFrac is the share of all CPU time stolen between two samples, as
// top's "st" reports it.
func stealFrac(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stolenShare is the share of the CPU time this VM wanted between two
// samples that the hypervisor gave to someone else: stolen over busy plus
// stolen. A thread that wanted a vCPU for wall time W ran for W·(1 − share).
// Unlike stealFrac it does not dilute the steal with idle vCPUs, which
// matters for an op that keeps one vCPU busy and the other mostly idle.
func stolenShare(a, b cpuStat) float64 {
	wanted := (b.busy - a.busy) + (b.steal - a.steal)
	if wanted == 0 {
		return 0
	}
	return float64(b.steal-a.steal) / float64(wanted)
}

// canaryMB is the canary's working set: far larger than any cache, so a
// pass measures the memory bandwidth the host gives this VM right now.
const canaryMB = 64

// canaryMS times a fixed memory-streaming loop and returns the median of
// several passes in milliseconds. It exercises no program code, so its
// drift between runs is the machine's, not the program's.
func canaryMS() float64 {
	buf := make([]uint64, canaryMB<<20/8)
	for i := range buf {
		buf[i] = uint64(i)
	}
	const passes = 9
	ms := make([]float64, passes)
	var sink uint64
	for p := range ms {
		t0 := now()
		for rep := 0; rep < 2; rep++ {
			for i := range buf {
				sink += buf[i]
				buf[i] = sink
			}
		}
		ms[p] = float64(now().Sub(t0)) / 1e6
	}
	runtime.KeepAlive(sink)
	return median(ms)
}
