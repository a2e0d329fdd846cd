package main

import (
	"bufio"
	"crypto/sha256"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"padres/internal/telemetry"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place). Empty input yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5) on a private copy.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// meanOf is the arithmetic mean of xs; empty input yields 0.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// histDelta subtracts an earlier snapshot of the same histogram from a later
// one, leaving the observations made in between.
func histDelta(after, before telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	if len(before.Counts) != len(after.Counts) {
		return after
	}
	out := telemetry.HistogramSnapshot{
		Bounds: after.Bounds,
		Counts: make([]int64, len(after.Counts)),
		Sum:    after.Sum - before.Sum,
		Count:  after.Count - before.Count,
	}
	for i := range after.Counts {
		out.Counts[i] = after.Counts[i] - before.Counts[i]
	}
	return out
}

// histQuantile estimates the q-quantile of a bucketed histogram in seconds,
// interpolating linearly inside the bucket that holds the rank (the
// histogram's own Quantile reports bucket upper bounds, which is too coarse
// to show a change smaller than a bucket).
func histQuantile(s telemetry.HistogramSnapshot, q float64) float64 {
	if s.Count <= 0 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		if c <= 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			if i >= len(s.Bounds) {
				return s.Bounds[len(s.Bounds)-1]
			}
			return lo + (s.Bounds[i]-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// mergeHists folds same-bucket snapshots into one, skipping any whose
// buckets disagree (none do: every latency histogram shares the defaults).
func mergeHists(snaps []telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	var out telemetry.HistogramSnapshot
	for _, s := range snaps {
		_ = out.Merge(s)
	}
	return out
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// gcWindow captures the Go runtime's collector counters at the start of a
// measured window.
type gcWindow struct{ start runtime.MemStats }

func startGC() *gcWindow {
	w := &gcWindow{}
	runtime.ReadMemStats(&w.start)
	return w
}

// report adds the window's GC cycles, total pause and allocated bytes.
func (w *gcWindow) report(m metrics) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	m.set("runtime.gc_cycles", float64(end.NumGC-w.start.NumGC), "count")
	m.set("runtime.gc_pause_ms", float64(end.PauseTotalNs-w.start.PauseTotalNs)/1e6, "ms")
	m.set("runtime.alloc_mb", float64(end.TotalAlloc-w.start.TotalAlloc)/(1<<20), "MB")
}

// cpuReference times a fixed computation that involves none of the
// program's code — the median of three SHA-256 passes over 32 MiB — so a
// run's figures can be read against the machine's speed at the time: on a
// shared host that speed drifts by a third within minutes.
func cpuReference() float64 {
	buf := make([]byte, 32<<20)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	var runs []float64
	for k := 0; k < 3; k++ {
		t0 := time.Now()
		sha256.Sum256(buf)
		runs = append(runs, ms(time.Since(t0)))
	}
	return median(runs)
}

// processCPU is the user plus system CPU time the process has used, in
// seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
