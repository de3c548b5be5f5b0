package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// snapshot is the process state the end-to-end and runtime metrics are
// differences of. take forces a GC first, so HeapAlloc is the live heap.
type snapshot struct {
	cpu       time.Duration // user+system CPU of the whole process
	mallocs   uint64
	allocB    uint64
	liveHeap  uint64
	mutexWait float64 // seconds, /sync/mutex/wait/total
	gcCPU     float64 // cpu-seconds, /cpu/classes/gc/total
	allCPU    float64 // cpu-seconds, /cpu/classes/total
	sched     *metrics.Float64Histogram
	steal     time.Duration // CPU time the hypervisor took from this VM
}

var runtimeSamples = []metrics.Sample{
	{Name: "/sync/mutex/wait/total:seconds"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/sched/latencies:seconds"},
}

func takeSnapshot() snapshot {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(runtimeSamples)
	s := snapshot{
		cpu:      processCPU(),
		mallocs:  ms.Mallocs,
		allocB:   ms.TotalAlloc,
		liveHeap: ms.HeapAlloc,
		steal:    hostSteal(),
	}
	if v := runtimeSamples[0].Value; v.Kind() == metrics.KindFloat64 {
		s.mutexWait = v.Float64()
	}
	if v := runtimeSamples[1].Value; v.Kind() == metrics.KindFloat64 {
		s.gcCPU = v.Float64()
	}
	if v := runtimeSamples[2].Value; v.Kind() == metrics.KindFloat64 {
		s.allCPU = v.Float64()
	}
	if v := runtimeSamples[3].Value; v.Kind() == metrics.KindFloat64Histogram {
		h := v.Float64Histogram()
		s.sched = &metrics.Float64Histogram{
			Counts:  append([]uint64(nil), h.Counts...),
			Buckets: append([]float64(nil), h.Buckets...),
		}
	}
	return s
}

// hostSteal reads the steal time of all CPUs from /proc/stat (Linux,
// in USER_HZ ticks of 10 ms). It is reported next to the results as a
// sign of interference from other guests; 0 where unavailable.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// delta is what happened between two snapshots.
type delta struct {
	cpu       time.Duration
	steal     time.Duration
	mallocs   uint64
	allocB    uint64
	retainedB float64 // live heap growth, may be negative
	mutexWait float64
	gcCPU     float64
	allCPU    float64
	sched     []uint64 // /sched/latencies bucket counts
	schedB    []float64
}

func diff(a, b snapshot) delta {
	d := delta{
		cpu:       b.cpu - a.cpu,
		steal:     b.steal - a.steal,
		mallocs:   b.mallocs - a.mallocs,
		allocB:    b.allocB - a.allocB,
		retainedB: float64(b.liveHeap) - float64(a.liveHeap),
		mutexWait: b.mutexWait - a.mutexWait,
		gcCPU:     b.gcCPU - a.gcCPU,
		allCPU:    b.allCPU - a.allCPU,
	}
	if a.sched != nil && b.sched != nil && len(a.sched.Counts) == len(b.sched.Counts) {
		d.sched = make([]uint64, len(b.sched.Counts))
		for i := range d.sched {
			d.sched[i] = b.sched.Counts[i] - a.sched.Counts[i]
		}
		d.schedB = b.sched.Buckets
	}
	return d
}

// schedP50 is the median scheduling latency in seconds.
func (d *delta) schedP50() float64 { return histQuantile(d.sched, d.schedB, 0.5) }

// histQuantile reads a quantile off a runtime/metrics histogram,
// interpolating inside the bucket (buckets[i], buckets[i+1]).
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var n uint64
	for _, c := range counts {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := buckets[i], buckets[i+1]
			if lo < 0 || hi > 1e9 { // open-ended edge buckets
				return max(lo, 0)
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return buckets[len(buckets)-1]
}

// host describes the machine a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
}

func hostFingerprint() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
	}
	// The CPU model is read from the kernel's /proc/cpuinfo (Linux).
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
