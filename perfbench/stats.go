package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile of xs with the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), so spreads computed here
// match the ones an external checker computes from the same values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's integer arithmetic: j indexes the order statistic below
		// position i*(n+1)/4, clamped to 1..n-1; delta/4 is the weight of the
		// one above (extrapolating when the clamp moved j).
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tail returns the highest percentile of xs that has at least 10 samples
// beyond it, with that percentile and the sample count. With 10 or fewer
// samples no percentile qualifies and the minimum is returned at p0.
func tail(xs []float64) (value, pct float64, n int) {
	s := sortedCopy(xs)
	n = len(s)
	if n == 0 {
		return 0, 0, 0
	}
	k := n - 11 // index with exactly 10 samples above it
	if k < 0 {
		return s[0], 0, n
	}
	return s[k], 100 * float64(k+1) / float64(n), n
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapSample reads the cumulative heap allocation counters without stopping
// the world (runtime/metrics, unlike runtime.ReadMemStats).
type heapSample struct{ bytes, objects uint64 }

var heapMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
}

func readHeap() heapSample {
	metrics.Read(heapMetrics)
	return heapSample{bytes: heapMetrics[0].Value.Uint64(), objects: heapMetrics[1].Value.Uint64()}
}

// peakRSSMB returns the process's resident-set high-water mark (VmHWM) in
// MB, read from /proc/self/status.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer func() { _ = f.Close() }() // read only
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// meter accumulates the host cost of timed regions: wall time per region
// plus CPU time and heap allocation summed over all regions.
type meter struct {
	cpu     float64
	bytes   uint64
	objects uint64

	t0 time.Time
	c0 float64
	h0 heapSample
}

func (m *meter) start() {
	m.h0 = readHeap()
	m.c0 = cpuSeconds()
	m.t0 = time.Now()
}

// stop closes the region and returns its wall time in seconds.
func (m *meter) stop() float64 {
	wall := time.Since(m.t0).Seconds()
	m.cpu += cpuSeconds() - m.c0
	h := readHeap()
	m.bytes += h.bytes - m.h0.bytes
	m.objects += h.objects - m.h0.objects
	return wall
}

// probe records host durations of public calls made by one simulated rank,
// timed from outside the library. A nil probe records nothing, so the
// untraced cycles pay only a nil check per call.
type probe struct {
	ms map[string][]float64
}

func newProbe() *probe { return &probe{ms: map[string][]float64{}} }

func (p *probe) start() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

func (p *probe) stop(name string, t0 time.Time) {
	if p == nil {
		return
	}
	p.ms[name] = append(p.ms[name], float64(time.Since(t0).Nanoseconds())/1e6)
}

// timeMS runs fn reps times and returns the median duration in ms.
func timeMS(reps int, fn func() error) (float64, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ds), nil
}
