package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is read as early as the runtime allows, so the live workloads
// can report set-up as a user sees it: from process start to window start.
var processStart = time.Now()

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM) in
// MB; where /proc is missing it falls back to the runtime's own total.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// memCounters is the slice of runtime.MemStats the benchmark differences
// across a window.
type memCounters struct {
	mallocs uint64
	pauseNs uint64
}

func readMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs}
}

// liveHeapBytes forces a collection and returns what survives it.
func liveHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// calibSink keeps the reference loop from being optimised away.
var calibSink uint64

// calibrate runs the fixed reference loop — a xorshift walk over a 256 KiB
// table, so it is sensitive to both a stolen core and a polluted cache — and
// returns its speed in operations per millisecond. Run between replicates
// and windows, its spread across one run says how noisy the host was.
func calibrate() float64 {
	const ops = 1 << 21
	table := make([]uint64, 1<<15)
	x := uint64(0x9E3779B97F4A7C15)
	start := time.Now()
	for i := 0; i < ops; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		slot := &table[x&(1<<15-1)]
		*slot += x
		x ^= *slot
	}
	elapsed := time.Since(start)
	calibSink += x
	return ops / (float64(elapsed.Nanoseconds()) / 1e6)
}

// quantile returns the q-quantile (0..1) of values by linear interpolation
// between order statistics; values need not be sorted. Zero for no values.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return quantile(values, 0.5) }

func sum[T float64 | time.Duration](values []T) (total T) {
	for _, v := range values {
		total += v
	}
	return total
}

func mean(values []float64) float64 { return ratio(sum(values), float64(len(values))) }

// ms and us convert a duration to fractional milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// ratio is a/b, zero when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
