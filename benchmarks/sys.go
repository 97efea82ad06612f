package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTimes is the process's user and system CPU time from getrusage.
type cpuTimes struct{ user, sys time.Duration }

func readCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{
		user: time.Duration(ru.Utime.Nano()),
		sys:  time.Duration(ru.Stime.Nano()),
	}
}

// ioCalls is the process's read- and write-family syscall counts from
// /proc/self/io; ok is false where the file is not readable (the
// kernel.* syscall metrics then read 0 with a note).
type ioCalls struct {
	reads, writes int64
	ok            bool
}

func readIO() ioCalls {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return ioCalls{}
	}
	var c ioCalls
	for _, line := range bytes.Split(data, []byte("\n")) {
		key, val, found := bytes.Cut(line, []byte(": "))
		if !found {
			continue
		}
		n, err := strconv.ParseInt(string(bytes.TrimSpace(val)), 10, 64)
		if err != nil {
			continue
		}
		switch string(key) {
		case "syscr":
			c.reads, c.ok = n, true
		case "syscw":
			c.writes = n
		}
	}
	return c
}

// goCounters is the slice of runtime.MemStats the benchmark differences.
type goCounters struct {
	mallocs    uint64
	gcPause    time.Duration
	heapBytes  uint64
	goroutines int
}

func readGo() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goCounters{
		mallocs:    ms.Mallocs,
		gcPause:    time.Duration(ms.PauseTotalNs),
		heapBytes:  ms.HeapAlloc,
		goroutines: runtime.NumGoroutine(),
	}
}

// spinSink keeps the spin loop's result live.
var spinSink uint64

// spinNs times a fixed arithmetic loop (min of five runs): the same work
// before and after a workload tells whether the host itself sped up or
// slowed down underneath the measurement.
func spinNs() float64 {
	best := time.Duration(1 << 62)
	for rep := 0; rep < 5; rep++ {
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < 1_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d := time.Since(start)
		spinSink += x
		best = min(best, d)
	}
	return float64(best.Nanoseconds())
}

// commitID finds the commit the binary was built from: the toolchain's
// VCS stamp, else .git/HEAD read by hand, else "unknown" (the driver's
// checkout is not a repository).
func commitID() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		if sha, err := os.ReadFile(".git/" + name); err == nil {
			return strings.TrimSpace(string(sha))
		}
		return "unknown"
	}
	return ref
}
