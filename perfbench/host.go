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

	"mlec/internal/obs"
)

// procSample is a snapshot of the process and host counters that a
// measured phase is the difference of.
type procSample struct {
	wall      time.Time
	cpu       time.Duration // process user+sys, all threads
	allocs    uint64        // cumulative heap bytes allocated
	gcCycles  uint64
	gcCPU     float64 // cumulative GC CPU seconds (runtime estimate)
	steal     uint64  // host /proc/stat steal ticks
	hostTotal uint64  // host /proc/stat total ticks
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func sampleProc() procSample {
	metrics.Read(runtimeSamples)
	s := procSample{
		wall:     time.Now(),
		cpu:      processCPU(),
		allocs:   runtimeSamples[0].Value.Uint64(),
		gcCycles: runtimeSamples[1].Value.Uint64(),
		gcCPU:    runtimeSamples[2].Value.Float64(),
	}
	s.steal, s.hostTotal = hostTicks()
	return s
}

// delta is what happened between two samples.
type delta struct {
	wall, cpu    time.Duration
	allocs       uint64
	gcCycles     uint64
	gcCPU        float64
	steal, total uint64
}

func (a procSample) to(b procSample) delta {
	return delta{
		wall: b.wall.Sub(a.wall), cpu: b.cpu - a.cpu,
		allocs: b.allocs - a.allocs, gcCycles: b.gcCycles - a.gcCycles, gcCPU: b.gcCPU - a.gcCPU,
		steal: b.steal - a.steal, total: b.hostTotal - a.hostTotal,
	}
}

func (d delta) stealShare() float64 {
	if d.total == 0 {
		return 0
	}
	return float64(d.steal) / float64(d.total)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's peak resident set size in bytes.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// liveHeap forces a collection and returns the bytes the heap retains.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// hostTicks reads the aggregate "cpu" line of /proc/stat and returns
// the steal ticks and the sum of all ticks. Zeros where the file is
// missing: steal is a diagnostic, not a result.
func hostTicks() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user, so sum the first eight.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// hostLine describes the machine a run measured, for the run log.
func hostLine() string {
	return fmt.Sprintf("host: go=%s gomaxprocs=%d numcpu=%d cpu=%q",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), obs.CPUModel())
}
