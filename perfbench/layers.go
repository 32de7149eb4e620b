package main

import (
	"errors"
	"fmt"
	"time"

	"pnetcdf/internal/access"
	"pnetcdf/internal/bench"
	"pnetcdf/internal/cdf"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpiio"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
)

// Direct layer timings of the traced run. Each calls one layer's public
// functions with the inputs the layer above would pass, prepared untimed,
// and reports the median of reps calls.

const reps = 5

// cbBufferSize is MPI-IO's default cb_buffer_size: the piece size in which
// aggregators hand the file image to pfs.
const cbBufferSize = 16 << 20

// mpiioReq is one rank's data request as core hands it to MPI-IO: the
// flattened file view and the encoded bytes.
type mpiioReq struct {
	view mpitype.Datatype
	ext  []byte
}

// newReq builds the request core would build for a put of data into the
// named variable; memsegs selects noncontiguous memory (nil: contiguous).
func newReq(h *cdf.Header, name string, start, count []int64, data any, memsegs []mpitype.Segment) (mpiioReq, error) {
	id := h.FindVar(name)
	if id < 0 {
		return mpiioReq{}, fmt.Errorf("variable %s missing", name)
	}
	v := &h.Vars[id]
	req, err := access.Validate(h, v, start, count, nil, true)
	if err != nil {
		return mpiioReq{}, err
	}
	view, err := access.FileView(h, v, req)
	if err != nil {
		return mpiioReq{}, err
	}
	var ext []byte
	if memsegs == nil {
		lin, err := netcdf.SliceHead(data, req.NElems)
		if err != nil {
			return mpiioReq{}, err
		}
		ext, err = cdf.EncodeSlice(nil, v.Type, lin)
	} else {
		ext, err = cdf.EncodeSegs(nil, v.Type, data, memsegs)
	}
	if err != nil && !errors.Is(err, cdf.ErrRange) {
		return mpiioReq{}, err
	}
	return mpiioReq{view: view, ext: ext}, nil
}

// headerLayers times header encode, decode, name lookup and the
// header-sized broadcast.
func headerLayers(m map[string]float64, h *cdf.Header, names []string, ranks int, net mpi.NetConfig) error {
	if err := cdfHeaderLayers(m, h, names); err != nil {
		return err
	}
	blob := h.Encode()
	var err error
	m["mpi.bcast_ms"], err = collectiveMS(ranks, net, func(c *mpi.Comm) {
		var data []byte
		if c.Rank() == 0 {
			data = blob
		}
		c.Bcast(0, data)
	})
	return err
}

// cdfHeaderLayers times header encode, decode and name lookup.
func cdfHeaderLayers(m map[string]float64, h *cdf.Header, names []string) error {
	blob := h.Encode()
	var err error
	if m["cdf.header_encode_ms"], err = timeMS(reps, func() error {
		h.Encode()
		return nil
	}); err != nil {
		return err
	}
	if m["cdf.header_decode_ms"], err = timeMS(reps, func() error {
		_, err := cdf.Decode(blob)
		return err
	}); err != nil {
		return err
	}
	m["cdf.findvar_ms"], err = timeMS(reps, func() error {
		for _, name := range names {
			if h.FindVar(name) < 0 {
				return fmt.Errorf("variable %s missing", name)
			}
		}
		return nil
	})
	return err
}

// flattenLayers times the flattening core and MPI-IO do per call: the
// memory type's segment list and the file view's segments for the request.
func flattenLayers(m map[string]float64, memtype, view mpitype.Datatype) error {
	var err error
	m["mpitype.segments_ms"], err = timeMS(reps, func() error {
		if memtype.Size() > 0 {
			memtype.Segments()
		}
		_, err := view.SegmentsForRange(0, 0, view.Size())
		return err
	})
	m["mpitype.mem_segments"] = float64(max(1, memtype.NumSegments()))
	m["mpitype.file_segments"] = float64(view.NumSegments())
	return err
}

// collectiveMS times fn on every rank between barriers, as seen by rank 0.
func collectiveMS(ranks int, net mpi.NetConfig, fn func(c *mpi.Comm)) (float64, error) {
	ds := make([]float64, reps)
	err := mpi.Run(ranks, net, func(c *mpi.Comm) error {
		for i := range ds {
			c.Barrier()
			t0 := time.Now()
			fn(c)
			c.Barrier()
			if c.Rank() == 0 {
				ds[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
			}
		}
		return nil
	})
	return median(ds), err
}

// dataLayers times MPI-IO, one exchange round of mpi and the pfs store on
// the requests of one cycle. wc holds the counts of a traced write cycle.
func dataLayers(m map[string]float64, wc cycleCounts, reqs [][]mpiioReq, mach bench.MachineSpec, img []byte) error {
	var err error
	if m["mpiio.write_all_ms"], m["mpiio.read_all_ms"], err = mpiioMS(reqs, mach); err != nil {
		return err
	}
	ranks := len(reqs)
	if rounds := wc["mpiio.rounds"]; rounds > 0 {
		perPair := int(wc["mpiio.exchange_MB"] * 1e6 / (rounds * float64(ranks)))
		if m["mpi.alltoall_ms"], err = collectiveMS(ranks, mach.Net, alltoall(ranks, perPair)); err != nil {
			return err
		}
	}
	return pfsLayers(m, mach.FS, img)
}

// alltoall returns an exchange of perPair bytes between every rank pair.
func alltoall(ranks, perPair int) func(c *mpi.Comm) {
	parts := make([][][]byte, ranks)
	for r := range parts {
		parts[r] = make([][]byte, ranks)
		for p := range parts[r] {
			parts[r][p] = make([]byte, perPair)
		}
	}
	return func(c *mpi.Comm) { c.Alltoall(parts[c.Rank()]) }
}

// mpiioMS times Open, SetView and WriteAtAll (then ReadAtAll) of every
// request, with the bytes already encoded, on a fresh file system.
func mpiioMS(reqs [][]mpiioReq, mach bench.MachineSpec) (writeMS, readMS float64, err error) {
	var ws, rs []float64
	for i := 0; i < 3; i++ {
		fsys := mach.NewFS()
		t0 := time.Now()
		err := mpi.Run(len(reqs), mach.Net, func(c *mpi.Comm) error {
			f, err := mpiio.Open(c, fsys, "layer.nc", mpiio.ModeRdWr|mpiio.ModeCreate|mpiio.ModeTrunc, nil)
			if err != nil {
				return err
			}
			for _, q := range reqs[c.Rank()] {
				if err := f.SetView(0, q.view); err != nil {
					return err
				}
				if err := f.WriteAtAll(0, q.ext); err != nil {
					return err
				}
			}
			return f.Close()
		})
		if err != nil {
			return 0, 0, err
		}
		ws = append(ws, float64(time.Since(t0).Nanoseconds())/1e6)
		t0 = time.Now()
		err = mpi.Run(len(reqs), mach.Net, func(c *mpi.Comm) error {
			f, err := mpiio.Open(c, fsys, "layer.nc", mpiio.ModeRdOnly, nil)
			if err != nil {
				return err
			}
			for _, q := range reqs[c.Rank()] {
				if err := f.SetView(0, q.view); err != nil {
					return err
				}
				// The file holds exactly these bytes, so reading them back
				// into the request's own buffer leaves it unchanged.
				if err := f.ReadAtAll(0, q.ext); err != nil {
					return err
				}
			}
			return f.Close()
		})
		if err != nil {
			return 0, 0, err
		}
		rs = append(rs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ws), median(rs), nil
}

// pfsLayers times writing the file image to a fresh file system in
// cb_buffer_size pieces with WriteVec, and reading it back with ReadVec.
func pfsLayers(m map[string]float64, cfg pfs.Config, img []byte) error {
	var ws, rs []float64
	for i := 0; i < 3; i++ {
		pf, t := pfs.New(cfg).Create("layer.img", 0)
		var err error
		t0 := time.Now()
		for off := 0; off < len(img) && err == nil; off += cbBufferSize {
			n := min(cbBufferSize, len(img)-off)
			t, err = pf.WriteVec(t, []pfs.Segment{{Off: int64(off), Len: int64(n)}}, [][]byte{img[off : off+n]})
		}
		ws = append(ws, float64(time.Since(t0).Nanoseconds())/1e6)
		t0 = time.Now()
		for off := 0; off < len(img) && err == nil; off += cbBufferSize {
			n := min(cbBufferSize, len(img)-off)
			t, err = pf.ReadVec(t, []pfs.Segment{{Off: int64(off), Len: int64(n)}}, [][]byte{img[off : off+n]})
		}
		rs = append(rs, float64(time.Since(t0).Nanoseconds())/1e6)
		if err != nil {
			return err
		}
	}
	m["pfs.writevec_ms"], m["pfs.readvec_ms"] = median(ws), median(rs)
	return nil
}
