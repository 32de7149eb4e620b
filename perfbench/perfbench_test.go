package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"pnetcdf/internal/bench"
	"pnetcdf/internal/flash"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpiio"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// TestSelfTimesPipelinedWrite runs a small collective write whose two-phase
// rounds are pipelined, so agg_write spans overlap the next round, and
// checks the self-time attribution on every rank: no self time is
// negative, and the self times of each span tree sum to its root's
// duration.
func TestSelfTimesPipelinedWrite(t *testing.T) {
	const ranks, blocks, block = 4, 64, 1024
	fsys := pfs.New(bench.SDSCBlueHorizon().FS)
	info := mpi.NewInfo().Set("cb_buffer_size", "4096")
	recs := make([]*span.Recorder, ranks)
	err := mpi.Run(ranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
		rec := span.NewRecorder(c.Rank(), c.Proc().Clock)
		c.Proc().SetSpans(rec)
		recs[c.Rank()] = rec
		f, err := mpiio.Open(c, fsys, "pipelined", mpiio.ModeRdWr|mpiio.ModeCreate, info)
		if err != nil {
			return err
		}
		segs := make([]mpitype.Segment, blocks)
		for i := range segs {
			segs[i] = mpitype.Segment{Off: int64((i*ranks + c.Rank()) * block), Len: block}
		}
		view, err := mpitype.FromSegments(segs, int64(blocks*ranks*block))
		if err != nil {
			return err
		}
		if err := f.SetView(0, view); err != nil {
			return err
		}
		if err := f.WriteAtAll(0, make([]byte, blocks*block)); err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	overlapped, naiveNegative := false, false
	for r, rec := range recs {
		spans := rec.Spans()
		byID := map[int64]span.Span{}
		childSum := map[int64]float64{}
		for _, s := range spans {
			byID[s.ID] = s
			childSum[s.Parent] += s.Dur()
		}
		for _, s := range spans {
			if s.Dur()-childSum[s.ID] < -1e-12 {
				naiveNegative = true
			}
			if s.Phase != span.AggWrite {
				continue
			}
			for _, o := range spans {
				if o.Phase == span.Round && o.Parent == s.Parent && o.Start >= s.Start && o.Start < s.End {
					overlapped = true
				}
			}
		}
		self := selfTimes(spans)
		rootOf := func(s span.Span) span.Span {
			for {
				p, ok := byID[s.Parent]
				if !ok {
					return s
				}
				s = p
			}
		}
		sums := map[int64]float64{}
		for _, s := range spans {
			if self[s.ID] < 0 {
				t.Errorf("rank %d: span %d (%s) has negative self time %g", r, s.ID, s.Phase, self[s.ID])
			}
			sums[rootOf(s).ID] += self[s.ID]
		}
		for id, sum := range sums {
			if d := byID[id].Dur(); math.Abs(sum-d) > 1e-9*math.Max(1, d) {
				t.Errorf("rank %d: root %d (%s): self times sum to %g, duration %g", r, id, byID[id].Phase, sum, d)
			}
		}
	}
	if !overlapped {
		t.Error("no agg_write span overlaps a later round: the write was not pipelined")
	}
	if !naiveNegative {
		t.Error("subtracting child durations never went negative: the test misses the overlap case")
	}
}

// TestFlashMatchesFlashioBench checks that a flash_ckpt write cycle takes
// the simulated time of flash.WriteCheckpointPnetCDF, the code behind
// "flashio-bench -block 8 -files checkpoint -procs 8", within the bound of
// write_sim_MBps: generating the blocks before the timed region changes
// only host time.
func TestFlashMatchesFlashioBench(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates about 1.5 GB")
	}
	w := newFlash()
	if err := w.setup(1); err != nil {
		t.Fatal(err)
	}
	ours, _, err := w.write(nil)
	if err != nil {
		t.Fatal(err)
	}
	var ref flash.Report
	fsys := w.mach.NewFS()
	err = mpi.Run(w.ranks, w.mach.Net, func(c *mpi.Comm) error {
		r, err := flash.WriteCheckpointPnetCDF(c, fsys, "reference.nc", w.cfg, nil)
		if c.Rank() == 0 {
			ref = r
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	bound := endToEndBound(t, "write_sim_MBps")
	ratio := ours / ref.Seconds
	t.Logf("flash_ckpt write %.4f s, flashio %.4f s (%.2f MB/s), ratio %.4f, bound %.2f", ours, ref.Seconds, ref.BandwidthMBps(), ratio, bound)
	if math.Abs(ratio-1) > bound {
		t.Errorf("flash_ckpt write takes %.4f s, flashio %.4f s: more than %.0f%% apart", ours, ref.Seconds, 100*bound)
	}
}

// endToEndBound reads an end-to-end metric's bound from BENCHMARK.json.
func endToEndBound(t *testing.T, name string) float64 {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	t.Fatalf("BENCHMARK.json has no end-to-end metric %s", name)
	return 0
}

// TestSelfTimesOverlap pins the attribution on a hand-made tree: a root
// [0,12] with children a [1,6] and b [4,8], where b overlaps a; c [5,7] is
// a's child reaching into b's interval; d and e [9,11] are siblings with
// the same interval.
func TestSelfTimesOverlap(t *testing.T) {
	spans := []span.Span{
		{ID: 1, Phase: "root", Start: 0, End: 12},
		{ID: 2, Parent: 1, Phase: "a", Start: 1, End: 6},
		{ID: 3, Parent: 1, Phase: "b", Start: 4, End: 8},
		{ID: 4, Parent: 2, Phase: "c", Start: 5, End: 7},
		{ID: 5, Parent: 1, Phase: "d", Start: 9, End: 11},
		{ID: 6, Parent: 1, Phase: "e", Start: 9, End: 11},
	}
	self := selfTimes(spans)
	// root: [0,1], [8,9] and [11,12]; a: [1,4] (b starts later and takes
	// [4,8]); c never wins an instant inside a, since b covers all of it;
	// d, recorded first, takes [9,11]. Plain union subtraction would give
	// a 4 (5 minus the part [5,6] of c inside a) and c 2, and the self
	// times would sum to more than the root's 12.
	want := map[int64]float64{1: 3, 2: 3, 3: 4, 4: 0, 5: 2, 6: 0}
	for id, w := range want {
		if math.Abs(self[id]-w) > 1e-12 {
			t.Errorf("span %d: self %g, want %g", id, self[id], w)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3.5, 1.25, 9, 4, 4.5}, 2.375, 6.75},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i)
	}
	v, pct, n := tail(xs)
	// 10 samples (31..40) lie beyond the 30th smallest value.
	if v != 30 || n != 40 || pct != 75 {
		t.Errorf("tail = %g at p%g of %d; want 30 at p75 of 40", v, pct, n)
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly the
// workloads and metrics this program prints, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestVerdict(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0}
	for _, c := range []struct {
		name string
		chg  []float64
		want string
	}{
		{"identical", base, "same"},
		{"inside the bound", scaled(1.05), "same"},
		{"slower", scaled(1.3), "worse"},
		{"faster", scaled(0.7), "better"},
		{"noisy", noisy, "unresolved"},
		// The next three spread wider than the bound, and every run lies on
		// one side of every base run.
		{"noisy, all worse inside the bound", []float64{1.03, 1.03, 1.03, 1.04, 1.05, 1.06, 1.2, 1.3, 1.4, 1.5}, "unresolved"},
		{"noisy, all worse beyond the bound", []float64{1.2, 1.25, 1.3, 1.35, 1.4, 1.45, 1.5, 1.55, 1.6, 1.65}, "unresolved"},
		{"noisy, all better inside the bound", []float64{0.97, 0.97, 0.96, 0.96, 0.95, 0.94, 0.8, 0.7, 0.6, 0.5}, "same"},
	} {
		if got := verdict(base, c.chg, true, 0.1); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
