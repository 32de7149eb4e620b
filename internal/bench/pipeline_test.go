package bench

import (
	"bytes"
	"testing"

	"pnetcdf/internal/flash"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/pfs"
)

// TestFlashPipelineAcceptance is the acceptance check for overlapped
// two-phase rounds: an 8-rank FLASH checkpoint whose collectives run many
// rounds (cb_buffer_size=65536, cb_nodes=2) must (a) write a file
// byte-identical to the default single-round plan and to independent I/O
// (romio_cb_write=disable) — overlapping rounds is a scheduling change only
// — and (b) actually overlap: the multi-round run reports nonzero
// io_pipelined_rounds and io_overlap_ns, the single-round run zero for both.
func TestFlashPipelineAcceptance(t *testing.T) {
	cfg := flash.Default8()
	run := func(name string, info *mpi.Info) ([]byte, map[string]int64) {
		t.Helper()
		fsys := pfs.New(pfs.DefaultConfig())
		var counters map[string]int64
		err := mpi.Run(8, mpi.DefaultNet(), func(c *mpi.Comm) error {
			c.Proc().SetStats(iostat.New())
			if _, err := flash.WriteCheckpointPnetCDF(c, fsys, "f.nc", cfg, info); err != nil {
				return err
			}
			if s := iostat.Reduce(c, c.Proc().Stats()); s != nil {
				counters = s.KeyCounters()
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pf, _, err := fsys.Open("f.nc", 0)
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		img := make([]byte, pf.Size())
		if _, err := pf.ReadAt(0, img, 0); err != nil {
			t.Fatalf("%s: raw read: %v", name, err)
		}
		return img, counters
	}

	singleImg, singleStats := run("single-round", mpi.NewInfo())
	multiImg, multiStats := run("multi-round", mpi.NewInfo().
		Set("cb_buffer_size", "65536").
		Set("cb_nodes", "2"))
	indepImg, _ := run("independent", mpi.NewInfo().Set("romio_cb_write", "disable"))

	if !bytes.Equal(singleImg, multiImg) {
		t.Fatalf("multi-round checkpoint differs from single-round: %d vs %d bytes",
			len(multiImg), len(singleImg))
	}
	if !bytes.Equal(singleImg, indepImg) {
		t.Fatalf("collective checkpoint differs from independent I/O: %d vs %d bytes",
			len(singleImg), len(indepImg))
	}
	if multiStats["io_pipelined_rounds"] == 0 {
		t.Fatal("multi-round run reports no io_pipelined_rounds — rounds never overlapped")
	}
	if multiStats["io_overlap_ns"] == 0 {
		t.Fatal("multi-round run reports no io_overlap_ns — nothing overlapped")
	}
	if singleStats["io_pipelined_rounds"] != 0 || singleStats["io_overlap_ns"] != 0 {
		t.Fatalf("single-round run reports overlap: rounds=%d overlap=%d",
			singleStats["io_pipelined_rounds"], singleStats["io_overlap_ns"])
	}
}
