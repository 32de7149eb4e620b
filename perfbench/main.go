// Command perfbench is the repository's benchmark. It runs one closed-loop
// workload against the public APIs of core (parallel netCDF) or the serial
// netcdf library, checks every file and read-back buffer, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload flash_ckpt --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with tracing
// off. With --trace 1 it reports the per-layer metrics: counters and
// simulated span self times from traced cycles, host times of the layers'
// public functions, and the tracing overhead.
//
//	perfbench compare BENCHMARK.json base.jsonl [change.jsonl]
//
// compares result sets written by sweep.sh (see compare.go).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workloads maps each workload name to its constructor.
var workloads = map[string]func() workload{
	"flash_ckpt":   func() workload { return newFlash() },
	"array_yx":     func() workload { return newArray() },
	"meta_8k":      func() workload { return newMeta() },
	"serial_array": func() workload { return newSerial() },
}

// metric names a reported value and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run. The simulated clock is
// reported as bandwidth, the paper's unit: bytes per cycle over the median
// simulated makespan of a cycle. The wall-time tails are printed but not
// among them: on a shared host a burst of contention lands in the tail of
// one run and not the next, so their run-to-run spread is too wide to bound.
var endToEnd = []metric{
	{"write_sim_MBps", "MB/s"}, {"read_sim_MBps", "MB/s"},
	{"write_wall_s", "s"}, {"read_wall_s", "s"},
	{"cpu_s", "s"}, {"alloc_MB", "MB"}, {"allocs_k", "k"},
	{"peak_rss_MB", "MB"}, {"setup_s", "s"},
}

// perLayer are the metrics of a traced run. A layer a workload does not
// exercise reports 0. The unit sim_s is seconds on the simulated clock,
// which some workloads reproduce exactly from run to run.
var perLayer = []metric{
	{"core.define_ms", "ms"}, {"core.enddef_ms", "ms"}, {"core.open_ms", "ms"}, {"core.lookup_ms", "ms"},
	{"core.put_ms", "ms"}, {"core.get_ms", "ms"}, {"core.iput_ms", "ms"}, {"core.waitall_ms", "ms"},
	{"cdf.findvar_ms", "ms"}, {"cdf.header_encode_ms", "ms"}, {"cdf.header_decode_ms", "ms"},
	{"cdf.encode_ms", "ms"}, {"cdf.decode_ms", "ms"},
	{"mpitype.subarray_ms", "ms"}, {"mpitype.segments_ms", "ms"},
	{"mpitype.mem_segments", "count"}, {"mpitype.file_segments", "count"},
	{"mpiio.write_all_ms", "ms"}, {"mpiio.read_all_ms", "ms"},
	{"mpiio.rounds", "count"}, {"mpiio.pipelined_rounds", "count"}, {"mpiio.overlap_s", "sim_s"},
	{"mpiio.exchange_MB", "MB"}, {"mpiio.agg_byte_imbalance", "ratio"}, {"mpiio.coll_aborts", "count"},
	{"mpi.bcast_ms", "ms"}, {"mpi.alltoall_ms", "ms"},
	{"mpi.collectives", "count"}, {"mpi.msgs", "count"}, {"mpi.sent_MB", "MB"},
	{"pfs.writevec_ms", "ms"}, {"pfs.readvec_ms", "ms"}, {"pfs.rmw_MB", "MB"},
	{"pfs.write_calls", "count"}, {"pfs.retries", "count"},
	{"netcdf.define_ms", "ms"}, {"netcdf.put_ms", "ms"}, {"netcdf.get_ms", "ms"}, {"netcdf.open_ms", "ms"},
	{"sim.header_commit_s", "sim_s"}, {"sim.plan_s", "sim_s"}, {"sim.exchange_s", "sim_s"}, {"sim.reply_xchg_s", "sim_s"},
	{"sim.agg_write_s", "sim_s"}, {"sim.agg_read_s", "sim_s"}, {"sim.pfs_write_s", "sim_s"}, {"sim.pfs_read_s", "sim_s"},
	{"trace.overhead_pct", "%"},
}

// probeMetrics maps rank 0's probed calls to per-layer metrics (median
// over all calls of the traced cycles).
var probeMetrics = map[string]string{
	"core.define": "core.define_ms", "core.enddef": "core.enddef_ms",
	"core.open": "core.open_ms", "core.lookup": "core.lookup_ms",
	"core.put": "core.put_ms", "core.get": "core.get_ms",
	"core.iput": "core.iput_ms", "core.waitall": "core.waitall_ms",
	"netcdf.define": "netcdf.define_ms", "netcdf.put": "netcdf.put_ms",
	"netcdf.get": "netcdf.get_ms", "netcdf.open": "netcdf.open_ms",
}

const (
	// setupReps is how many times a run sets up, for the setup_s median.
	setupReps = 3
	// minCycles guarantees 10 samples beyond the reported tail percentile.
	minCycles = 11
	// maxRun bounds a run's measuring loop whatever the cycle time.
	maxRun = 120 * time.Second
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload: flash_ckpt, array_yx, meta_8k or serial_array")
	seed := flag.Uint64("seed", 1, "input generator seed")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad flags\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(*name, mk, *seed, dur)
	} else {
		res, err = runMeasured(*name, mk, *seed, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// result is one run's outcome: notes precede the metrics, and extra lines
// follow them in the report.
type result struct {
	attempted, failed int64
	values            map[string]float64
	units             []metric
	notes, extra      []string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) print(f io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(f, n)
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.units {
		v := r.values[m.name]
		fmt.Fprintf(f, "%-26s %14.6g %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	for _, x := range r.extra {
		fmt.Fprintln(f, x)
	}
	fmt.Fprintf(f, "%-26s %14.6g ratio (failed %d of %d operations)\n", "error_rate",
		float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	b, _ := json.Marshal(out)
	fmt.Fprintln(f, string(b))
}

// session runs cycles of one workload and accounts for them.
type session struct {
	w                 workload
	attempted, failed int64
	wWall, rWall      []float64
	wSim, rSim        []float64
	host              meter
	verifyS           float64 // host time spent verifying
}

// cycle runs one write and one read cycle with verification outside the
// timed regions. A non-nil tracer instruments both; wc and rc then receive
// the traced counts of each.
func (s *session) cycle(tr *tracer, wc, rc cycleCounts) error {
	s.host.start()
	sim, ops, err := s.w.write(tr)
	wall := s.host.stop()
	s.attempted += ops
	if err != nil {
		s.failed++
		return fmt.Errorf("write cycle: %w", err)
	}
	s.wWall, s.wSim = append(s.wWall, wall), append(s.wSim, sim)
	if tr != nil {
		tr.collect(wc)
	}
	t0 := time.Now()
	s.check(s.w.checkFile())
	s.w.scramble()
	s.verifyS += time.Since(t0).Seconds()

	s.host.start()
	sim, ops, err = s.w.read(tr)
	wall = s.host.stop()
	s.attempted += ops
	if err != nil {
		s.failed++
		return fmt.Errorf("read cycle: %w", err)
	}
	s.rWall, s.rSim = append(s.rWall, wall), append(s.rSim, sim)
	if tr != nil {
		tr.collect(rc)
	}
	t0 = time.Now()
	s.check(s.w.checkRead())
	s.verifyS += time.Since(t0).Seconds()
	return nil
}

func (s *session) check(checks, bad int64) {
	s.attempted += checks
	s.failed += bad
}

// reset drops the samples of the cycles run so far, keeping the operation
// and failure counts.
func (s *session) reset() {
	s.wWall, s.rWall, s.wSim, s.rSim = nil, nil, nil, nil
	s.host = meter{}
}

// setup builds the workload n times afresh and returns the session
// of the last build and the median set-up time. Set-up is input
// generation, file-system creation and one warm-up write and read cycle;
// the warm-up cycle's verification is not part of it.
func setup(mk func() workload, seed uint64, n int) (*session, float64, error) {
	var times []float64
	var s *session
	var attempted, failed int64
	for k := 0; k < n; k++ {
		if s != nil {
			attempted, failed = s.attempted, s.failed
		}
		// Drop the last build before the next one, so that the peak
		// resident set holds one workload.
		s = nil
		debug.FreeOSMemory()
		t0 := time.Now()
		s = &session{w: mk(), attempted: attempted, failed: failed}
		if err := s.w.setup(seed); err != nil {
			return nil, 0, err
		}
		if err := s.cycle(nil, nil, nil); err != nil {
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds()-s.verifyS)
		s.reset()
	}
	runtime.GC()
	return s, median(times), nil
}

// loop runs untraced cycles until dur has passed and at least min cycles
// ran. A failed call ends the loop; the failure is counted in the session.
func (s *session) loop(dur time.Duration, min int) {
	start := time.Now()
	for n := 0; n < min || time.Since(start) < dur; n++ {
		if time.Since(start) > maxRun {
			return
		}
		if err := s.cycle(nil, nil, nil); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return
		}
	}
}

func runMeasured(name string, mk func() workload, seed uint64, dur time.Duration) (*result, error) {
	s, setupS, err := setup(mk, seed, setupReps)
	if err != nil {
		return nil, err
	}
	s.loop(dur, minCycles)
	if len(s.rWall) == 0 {
		return nil, errors.New("no cycle completed")
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	cycles := float64(len(s.rWall))
	wTail, wPct, wN := tail(s.wWall)
	rTail, rPct, rN := tail(s.rWall)
	mb := float64(s.w.bytesPerCycle()) / 1e6
	v := map[string]float64{
		"write_sim_MBps": mb / median(s.wSim), "read_sim_MBps": mb / median(s.rSim),
		"write_wall_s": median(s.wWall), "read_wall_s": median(s.rWall),
		"cpu_s":       s.host.cpu / cycles,
		"alloc_MB":    float64(s.host.bytes) / cycles / 1e6,
		"allocs_k":    float64(s.host.objects) / cycles / 1e3,
		"peak_rss_MB": rss,
		"setup_s":     setupS,
	}
	notes := []string{
		fmt.Sprintf("workload %s: %s, closed loop, seed %d", name, s.w.describe(), seed),
		fmt.Sprintf("bytes per cycle %d each way; %d write+read cycles in %.1f s", s.w.bytesPerCycle(), len(s.rWall), dur.Seconds()),
		fmt.Sprintf("simulated makespan per cycle (median): write %.6f s, read %.6f s", median(s.wSim), median(s.rSim)),
	}
	extra := []string{
		fmt.Sprintf("%-26s %14.6g s (p%.1f of %d samples)", "write_wall_tail_s", wTail, wPct, wN),
		fmt.Sprintf("%-26s %14.6g s (p%.1f of %d samples)", "read_wall_tail_s", rTail, rPct, rN),
	}
	return &result{attempted: s.attempted, failed: s.failed, values: v, units: endToEnd, notes: notes, extra: extra}, nil
}

func runTraced(name string, mk func() workload, seed uint64, dur time.Duration) (*result, error) {
	s, _, err := setup(mk, seed, 1)
	if err != nil {
		return nil, err
	}
	// Traced and untraced cycles alternate, so that both see the same heap
	// and host conditions and their difference is the tracing overhead.
	tr := newTracer()
	var first cycleCounts
	var plain, traced []float64
	samples := map[string][]float64{}
	start := time.Now()
	for n := 0; n < 6 || time.Since(start) < dur; n++ {
		if time.Since(start) > maxRun {
			break
		}
		if n%2 == 0 {
			if err := s.cycle(nil, nil, nil); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				break
			}
			plain = append(plain, s.wWall[len(s.wWall)-1])
			continue
		}
		wc, rc := cycleCounts{}, cycleCounts{}
		if err := s.cycle(tr, wc, rc); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			break
		}
		traced = append(traced, s.wWall[len(s.wWall)-1])
		if first == nil {
			first = cycleCounts{}
			for k, x := range wc {
				first[k] = x
			}
		}
		for k, x := range rc {
			if k != "mpiio.agg_byte_imbalance" {
				wc[k] += x
			}
		}
		for k, x := range wc {
			samples[k] = append(samples[k], x)
		}
	}
	if first == nil || len(plain) == 0 {
		return nil, errors.New("no traced cycle completed")
	}
	m := map[string]float64{}
	for k, xs := range samples {
		m[k] = median(xs)
	}
	for call, k := range probeMetrics {
		m[k] = median(tr.probe.ms[call])
	}
	if err := s.w.layers(m, first); err != nil {
		return nil, fmt.Errorf("layer timings: %w", err)
	}
	m["trace.overhead_pct"] = (median(traced)/median(plain) - 1) * 100
	notes := []string{
		fmt.Sprintf("workload %s: %s, traced, seed %d", name, s.w.describe(), seed),
		fmt.Sprintf("%d traced and %d untraced write+read cycles; counts and simulated times are per traced cycle", len(traced), len(plain)),
	}
	keys := make([]string, 0, len(tr.probe.ms))
	for k := range tr.probe.ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		notes = append(notes, fmt.Sprintf("probe %-16s %6d calls on rank 0", k, len(tr.probe.ms[k])))
	}
	return &result{attempted: s.attempted, failed: s.failed, values: m, units: perLayer, notes: notes}, nil
}
