package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// workload is one closed-loop scenario: a rank group (or one serial
// process) that runs a write cycle, Create … Close, then a read cycle,
// Open … Close, and starts the next cycle only after the last one ended.
type workload interface {
	// setup generates the inputs from seed and builds a fresh file system.
	setup(seed uint64) error
	// write and read run one cycle. They return the simulated makespan and
	// the number of library calls made. A non-nil tracer installs span
	// recorders and counters and times rank 0's calls.
	write(tr *tracer) (sim float64, ops int64, err error)
	read(tr *tracer) (sim float64, ops int64, err error)
	// checkFile verifies the file the last write left, and checkRead the
	// buffers the last read filled. They return checks made and mismatches.
	checkFile() (checks, bad int64)
	checkRead() (checks, bad int64)
	// scramble overwrites the read destinations, so that checkRead proves
	// the read filled them.
	scramble()
	// layers times the layers' public functions directly (trace mode).
	layers(m map[string]float64, counts cycleCounts) error
	// bytesPerCycle is the data moved by one write cycle (and again by one
	// read cycle).
	bytesPerCycle() int64
	// describe names the ranks and machine model.
	describe() string
}

// --- seeded input generator ---

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// hash mixes the seed with a variable index a (< 2^24) and an element index
// b (< 2^40).
func hash(seed uint64, a, b int64) uint64 {
	return splitmix(seed*0xD1342543DE82EF95 ^ (uint64(a)<<40 | uint64(b)))
}

// val32 and val64 are exactly representable, finite and never equal to a
// sentinel, so a bit comparison tells generated data from anything else.
func val32(seed uint64, a, b int64) float32 {
	return float32(int32(hash(seed, a, b)>>40)-(1<<23)) / 256
}

func val64(seed uint64, a, b int64) float64 {
	return float64(int64(hash(seed, a, b)>>11)-(1<<52)) / 1024
}

var (
	// readSentinel32/64 fill read destinations before a read cycle.
	readSentinel32 = math.Float32frombits(0x7FC0DEAD)
	readSentinel64 = math.Float64frombits(0x7FF8DEADBEEF0001)
)

// --- file image access, outside the library's read path ---

// fileImage copies the raw bytes of a simulated file into buf (grown as
// needed). The copy goes through a fresh pfs handle with no counters or
// spans; harness code resets the server clocks before each cycle.
func fileImage(fsys *pfs.FS, name string, buf []byte) ([]byte, error) {
	pf, _, err := fsys.Open(name, 0)
	if err != nil {
		return buf, err
	}
	n := pf.Size()
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := pf.ReadAt(0, buf, 0); err != nil {
		return buf, err
	}
	return buf, nil
}

// checkedHeader decodes and validates an image with cdf.CheckFile, the
// check ncvalidate runs, and counts a failure as one mismatch.
func checkedHeader(img []byte) (*cdf.Header, int64) {
	h, flaws, err := cdf.CheckFile(img)
	if err != nil || len(flaws) > 0 {
		return nil, 1
	}
	return h, 0
}

// varMatches reports whether the decoded header declares the named
// variable with type t and the image holds want as its data.
func varMatches(h *cdf.Header, img []byte, name string, t nctype.Type, want []byte) bool {
	id := h.FindVar(name)
	return id >= 0 && h.Vars[id].Type == t && dataMatches(img, &h.Vars[id], want)
}

func be32(img []byte, off int64) uint32 { return binary.BigEndian.Uint32(img[off:]) }

// match32 and match64 report whether xs holds the big-endian values of
// want, bit for bit.
func match32(xs []float32, want []byte) bool {
	for i, x := range xs {
		if math.Float32bits(x) != binary.BigEndian.Uint32(want[4*i:]) {
			return false
		}
	}
	return true
}

func match64(xs []float64, want []byte) bool {
	for i, x := range xs {
		if math.Float64bits(x) != binary.BigEndian.Uint64(want[8*i:]) {
			return false
		}
	}
	return true
}

// dataMatches reports whether the image holds want at the variable's
// offset.
func dataMatches(img []byte, v *cdf.Var, want []byte) bool {
	return v.Begin >= 0 && v.Begin+int64(len(want)) <= int64(len(img)) &&
		bytes.Equal(img[v.Begin:v.Begin+int64(len(want))], want)
}

// --- rank groups and tracing ---

// tracer instruments traced cycles: per-rank counters and span recorders
// on the simulated clock (the pfs and pipelined spans carry simulated
// times, so a host clock would mix the two), and a probe that times rank
// 0's library calls on the host clock from outside the library.
type tracer struct {
	probe *probe
	stats []*iostat.Stats
	recs  []*span.Recorder
}

func newTracer() *tracer { return &tracer{probe: newProbe()} }

// begin readies the tracer for one cycle of n ranks.
func (t *tracer) begin(n int) {
	t.stats = make([]*iostat.Stats, n)
	t.recs = make([]*span.Recorder, n)
}

// attach instruments one rank and returns its probe (nil except rank 0).
func (t *tracer) attach(c *mpi.Comm) *probe {
	if t == nil {
		return nil
	}
	st := iostat.New()
	rec := span.NewRecorder(c.Rank(), c.Proc().Clock)
	c.Proc().SetStats(st)
	c.Proc().SetSpans(rec)
	t.stats[c.Rank()] = st
	t.recs[c.Rank()] = rec
	if c.Rank() == 0 {
		return t.probe
	}
	return nil
}

// runRanks runs fn on n simulated ranks as one cycle and returns the
// simulated makespan (every rank starts at 0) and the calls made.
func runRanks(n int, net mpi.NetConfig, tr *tracer, fn func(c *mpi.Comm, pr *probe) (int64, error)) (float64, int64, error) {
	if tr != nil {
		tr.begin(n)
	}
	clocks := make([]float64, n)
	ops := make([]int64, n)
	err := mpi.Run(n, net, func(c *mpi.Comm) error {
		pr := tr.attach(c)
		o, err := fn(c, pr)
		ops[c.Rank()] = o
		clocks[c.Rank()] = c.Clock()
		return err
	})
	var sim float64
	var total int64
	for r := 0; r < n; r++ {
		sim = math.Max(sim, clocks[r])
		total += ops[r]
	}
	if err != nil {
		return sim, total, fmt.Errorf("%d ranks: %w", n, err)
	}
	return sim, total, nil
}

// cycleCounts are the per-layer values of one traced cycle: counter sums
// over ranks, and simulated self times as the mean over ranks.
type cycleCounts map[string]float64

// collect reads the counters and spans of the cycle that just ended.
func (t *tracer) collect(into cycleCounts) {
	var sum iostat.Snapshot
	for _, st := range t.stats {
		s := st.Snapshot()
		for i := range sum {
			sum[i] += s[i]
		}
	}
	into["mpiio.rounds"] += float64(sum[iostat.IOTwoPhaseRounds])
	into["mpiio.pipelined_rounds"] += float64(sum[iostat.IOPipelinedRounds])
	into["mpiio.exchange_MB"] += float64(sum[iostat.IOExchangeBytes]) / 1e6
	into["mpiio.coll_aborts"] += float64(sum[iostat.IOCollAborts])
	into["mpi.collectives"] += float64(sum[iostat.MPICollectives])
	into["mpi.msgs"] += float64(sum[iostat.MPIMsgsSent])
	into["mpi.sent_MB"] += float64(sum[iostat.MPIBytesSent]) / 1e6
	into["pfs.rmw_MB"] += float64(sum[iostat.PfsRMWBytes]) / 1e6
	into["pfs.write_calls"] += float64(sum[iostat.PfsWriteCalls])
	into["pfs.retries"] += float64(sum[iostat.PfsRetries] + sum[iostat.IORetries])

	n := float64(len(t.recs))
	into["mpiio.overlap_s"] += float64(sum[iostat.IOOverlapTimeNs]) / 1e9 / math.Max(n, 1)
	aggBytes := make([]float64, len(t.recs))
	for r, rec := range t.recs {
		spans := rec.Spans()
		self := phaseSelf(spans)
		for phase, metric := range simPhases {
			into[metric] += self[phase] / n
		}
		// The aggregator I/O and header commit phases are reported whole:
		// their time is the pfs requests they wait for, which hold it as
		// self time. Only rank 0 commits the header.
		for _, s := range spans {
			switch s.Phase {
			case span.HeaderCommit:
				into["sim.header_commit_s"] += s.Dur()
			case span.AggWrite:
				into["sim.agg_write_s"] += s.Dur() / n
				aggBytes[r] += float64(s.Bytes)
			case span.AggRead:
				into["sim.agg_read_s"] += s.Dur() / n
			}
		}
	}
	if mean := meanOf(aggBytes); mean > 0 {
		into["mpiio.agg_byte_imbalance"] = maxOf(aggBytes) / mean
	}
}

// simPhases maps span phases to the per-layer metrics of their simulated
// self time.
var simPhases = map[string]string{
	span.Plan:      "sim.plan_s",
	span.Exchange:  "sim.exchange_s",
	span.ReplyXchg: "sim.reply_xchg_s",
	span.PFSWrite:  "sim.pfs_write_s",
	span.PFSRead:   "sim.pfs_read_s",
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
