package pnetcdf_test

// Allocation regression pin for the pooled collective round: exchange and
// round buffers come from internal/bufpool and the aggregator hands its
// assembled iovec straight to the PFS, so bytes allocated per collective
// write are dominated by fixed mpi/pfs machinery, not by
// rounds x cb_buffer_size copies. Before pooling this shape allocated over
// 100 MB/op; the pin catches any return to per-round buffer churn.

import (
	"testing"

	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpiio"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/pfs"
)

// collectiveWriteOnce runs one 4-rank strided collective write whose plan
// has two rounds per aggregator, so the first round's write overlaps the
// second round's exchange.
func collectiveWriteOnce(tb testing.TB) {
	const ranks = 4
	const blockLen = 64 << 10
	const nBlocks = 4 // 256 KiB per rank
	fs := pfs.New(pfs.DefaultConfig())
	err := mpi.Run(ranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
		info := mpi.NewInfo()
		info.Set("cb_buffer_size", "131072")
		f, err := mpiio.Open(c, fs, "alloc.nc", mpiio.ModeRdWr|mpiio.ModeCreate, info)
		if err != nil {
			return err
		}
		ft, err := mpitype.Vector(nBlocks, blockLen, ranks*blockLen, mpitype.Contig(1))
		if err != nil {
			return err
		}
		if err := f.SetView(int64(c.Rank())*blockLen, ft); err != nil {
			return err
		}
		buf := make([]byte, nBlocks*blockLen)
		for j := range buf {
			buf[j] = byte(c.Rank())
		}
		if err := f.WriteAtAll(0, buf); err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		tb.Fatal(err)
	}
}

func TestAllocsCollectiveRound(t *testing.T) {
	collectiveWriteOnce(t) // warm the buffer pools
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			collectiveWriteOnce(b)
		}
	})
	t.Logf("collective write: %d allocs/op, %d B/op", res.AllocsPerOp(), res.AllocedBytesPerOp())
	// The op includes a fresh pfs.New, file create, and 4-rank mpi.Run; the
	// budget covers that fixed machinery (chunk storage for 1 MiB of file
	// data, goroutine stacks) with headroom, but not per-round copies of the
	// 1 MiB payload across the 8 rounds this shape produces.
	if res.AllocedBytesPerOp() > 8<<20 {
		t.Errorf("collective write allocates %d B/op, want <= %d", res.AllocedBytesPerOp(), 8<<20)
	}
	if res.AllocsPerOp() > 2000 {
		t.Errorf("collective write allocates %d objects/op, want <= 2000", res.AllocsPerOp())
	}
}

// serialBytesPerOp is what collectiveWriteOnce allocated per op on the
// serial round loop, before the round engine replaced it: 3,067,242 to
// 3,077,122 B/op over three runs, the largest kept.
const serialBytesPerOp = 3_077_122

// TestAllocsPipelinedVsSerial pins the overlapped rounds' steady-state
// allocation cost. A multi-round call keeps TWO generations of round
// buffers alive, but both come from (and return to) the shared pools, so
// after warm-up its bytes/op must stay within a modest factor of what the
// serial loop allocated — a leak of the in-flight generation (recycleRound
// skipped on some path) would show up here as unpooled per-round churn.
func TestAllocsPipelinedVsSerial(t *testing.T) {
	collectiveWriteOnce(t) // warm the buffer pools
	piped := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			collectiveWriteOnce(b)
		}
	})
	t.Logf("pipelined: %d allocs/op, %d B/op", piped.AllocsPerOp(), piped.AllocedBytesPerOp())
	// Absolute pins (same fixed machinery as TestAllocsCollectiveRound).
	if piped.AllocedBytesPerOp() > 8<<20 {
		t.Errorf("pipelined write allocates %d B/op, want <= %d", piped.AllocedBytesPerOp(), 8<<20)
	}
	if piped.AllocsPerOp() > 2000 {
		t.Errorf("pipelined write allocates %d objects/op, want <= 2000", piped.AllocsPerOp())
	}
	// The second generation must reuse pooled memory, not double the
	// per-op footprint. 1.5x leaves room for the AsyncOp, closures, and
	// one extra warm generation per pool class.
	if limit := 1.5 * serialBytesPerOp; float64(piped.AllocedBytesPerOp()) > limit {
		t.Errorf("pipelined B/op %d exceeds 1.5x the serial loop's %d — generation buffers not pooled",
			piped.AllocedBytesPerOp(), serialBytesPerOp)
	}
}
