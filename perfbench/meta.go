package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"pnetcdf/internal/access"
	"pnetcdf/internal/bench"
	"pnetcdf/internal/cdf"
	"pnetcdf/internal/core"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
)

// metaWL is the metadata-heavy case: 4 ranks define 8,000 1-D float
// variables with 2 attributes each, then move 64 floats per rank per
// variable through one nonblocking batch (IPutVara … WaitAll, and on the
// read side VarID, IGetVara … WaitAll).
type metaWL struct {
	ranks, nvars, piece int
	mach                bench.MachineSpec
	fsys                *pfs.FS

	names  []string
	units  []string    // attribute "units" per variable
	scales [][]float32 // attribute "scale" per variable
	// buf[r] holds rank r's piece of every variable, variable-major: the
	// write input and the read destination.
	buf [][]float32
	// ids[r] are the variable IDs rank r looked up in the last read.
	ids [][]int
	// want is the expected external data of every variable, in order.
	want []byte
	img  []byte
}

const metaFile = "meta.nc"

func newMeta() *metaWL {
	return &metaWL{ranks: 4, nvars: 8000, piece: 64, mach: bench.SDSCBlueHorizon()}
}

func (w *metaWL) describe() string {
	return fmt.Sprintf("%d ranks, %d variables, %s, default hints", w.ranks, w.nvars, w.mach.Name)
}

func (w *metaWL) varLen() int { return w.ranks * w.piece }

func (w *metaWL) bytesPerCycle() int64 { return int64(4 * w.nvars * w.varLen()) }

// want32 is the expected bytes of element j of variable i.
func (w *metaWL) want32(i, j int) []byte { return w.want[4*(i*w.varLen()+j):] }

func (w *metaWL) setup(seed uint64) error {
	w.fsys = w.mach.NewFS()
	w.names = make([]string, w.nvars)
	w.units = make([]string, w.nvars)
	w.scales = make([][]float32, w.nvars)
	for i := range w.names {
		w.names[i] = fmt.Sprintf("var_%05d", i)
		w.units[i] = fmt.Sprintf("unit_%x", hash(seed, 3, int64(i))%4096)
		w.scales[i] = []float32{val32(seed, 4, int64(i))}
	}
	w.want = make([]byte, 4*w.nvars*w.varLen())
	for k := 0; k < w.nvars*w.varLen(); k++ {
		binary.BigEndian.PutUint32(w.want[4*k:], math.Float32bits(val32(seed, 2, int64(k))))
	}
	w.buf = make([][]float32, w.ranks)
	w.ids = make([][]int, w.ranks)
	for r := range w.buf {
		buf := make([]float32, w.nvars*w.piece)
		for i := 0; i < w.nvars; i++ {
			for j := 0; j < w.piece; j++ {
				buf[i*w.piece+j] = math.Float32frombits(binary.BigEndian.Uint32(w.want32(i, r*w.piece+j)))
			}
		}
		w.buf[r] = buf
		w.ids[r] = make([]int, w.nvars)
	}
	return nil
}

func (w *metaWL) write(tr *tracer) (float64, int64, error) {
	w.fsys.ResetClock()
	return runRanks(w.ranks, w.mach.Net, tr, w.writeRank)
}

func (w *metaWL) writeRank(c *mpi.Comm, pr *probe) (ops int64, err error) {
	r := c.Rank()
	d, err := core.Create(c, w.fsys, metaFile, nctype.Clobber, nil)
	ops++
	if err != nil {
		return ops, err
	}
	t := pr.start()
	dim, err := d.DefDim("n", int64(w.varLen()))
	ops++
	if err != nil {
		return ops, err
	}
	dims := []int{dim}
	for i, name := range w.names {
		v, err := d.DefVar(name, nctype.Float, dims)
		ops++
		if err != nil {
			return ops, err
		}
		ops += 2
		if err := d.PutAttr(v, "units", nctype.Char, w.units[i]); err != nil {
			return ops, err
		}
		if err := d.PutAttr(v, "scale", nctype.Float, w.scales[i]); err != nil {
			return ops, err
		}
	}
	pr.stop("core.define", t)
	t = pr.start()
	err = d.EndDef()
	pr.stop("core.enddef", t)
	ops++
	if err != nil {
		return ops, err
	}
	start, count := []int64{int64(r * w.piece)}, []int64{int64(w.piece)}
	for i := 0; i < w.nvars; i++ {
		t = pr.start()
		_, err := d.IPutVara(i, start, count, w.buf[r][i*w.piece:(i+1)*w.piece])
		pr.stop("core.iput", t)
		ops++
		if err != nil {
			return ops, err
		}
	}
	t = pr.start()
	err = d.WaitAll()
	pr.stop("core.waitall", t)
	ops++
	if err != nil {
		return ops, err
	}
	ops++
	return ops, d.Close()
}

func (w *metaWL) read(tr *tracer) (float64, int64, error) {
	w.fsys.ResetClock()
	return runRanks(w.ranks, w.mach.Net, tr, w.readRank)
}

func (w *metaWL) readRank(c *mpi.Comm, pr *probe) (ops int64, err error) {
	r := c.Rank()
	t := pr.start()
	d, err := core.Open(c, w.fsys, metaFile, nctype.NoWrite, nil)
	pr.stop("core.open", t)
	ops++
	if err != nil {
		return ops, err
	}
	ids := w.ids[r]
	t = pr.start()
	for i, name := range w.names {
		ids[i] = d.VarID(name)
	}
	pr.stop("core.lookup", t)
	ops += int64(len(ids))
	start, count := []int64{int64(r * w.piece)}, []int64{int64(w.piece)}
	for i, id := range ids {
		_, err := d.IGetVara(id, start, count, w.buf[r][i*w.piece:(i+1)*w.piece])
		ops++
		if err != nil {
			return ops, err
		}
	}
	err = d.WaitAll()
	ops++
	if err != nil {
		return ops, err
	}
	ops++
	return ops, d.Close()
}

func (w *metaWL) checkFile() (checks, bad int64) {
	var err error
	w.img, err = fileImage(w.fsys, metaFile, w.img)
	checks++
	if err != nil {
		return checks, 1
	}
	h, bad := checkedHeader(w.img)
	if h == nil {
		return checks, bad
	}
	// Variables keep their definition order in the header.
	if len(h.Vars) != w.nvars {
		return checks, bad + 1
	}
	n := 4 * w.varLen()
	for i := range h.Vars {
		checks++
		v := &h.Vars[i]
		if v.Name != w.names[i] || v.Type != nctype.Float || !w.attrsOK(v, i) ||
			!dataMatches(w.img, v, w.want[i*n:(i+1)*n]) {
			bad++
		}
	}
	return checks, bad
}

// attrsOK checks variable i's two attributes in a decoded header.
func (w *metaWL) attrsOK(v *cdf.Var, i int) bool {
	if len(v.Attrs) != 2 {
		return false
	}
	u, s := v.Attrs[0], v.Attrs[1]
	return u.Name == "units" && u.Type == nctype.Char && string(u.Values[:u.Nelems]) == w.units[i] &&
		s.Name == "scale" && s.Type == nctype.Float && s.Nelems == 1 &&
		be32(s.Values, 0) == math.Float32bits(w.scales[i][0])
}

func (w *metaWL) scramble() {
	for _, buf := range w.buf {
		for i := range buf {
			buf[i] = readSentinel32
		}
	}
}

func (w *metaWL) checkRead() (checks, bad int64) {
	for r, buf := range w.buf {
		checks++
		good := true
		for i := 0; i < w.nvars && good; i++ {
			good = w.ids[r][i] == i && match32(buf[i*w.piece:(i+1)*w.piece], w.want32(i, r*w.piece))
		}
		if !good {
			bad++
		}
	}
	return checks, bad
}

// fusedReq builds rank r's request as core's WaitAll fuses it: one view over
// its piece of every variable, with the pieces' bytes in file order.
func (w *metaWL) fusedReq(h *cdf.Header, r int) (mpiioReq, error) {
	var segs []mpitype.Segment
	var ext []byte
	for i := range h.Vars {
		v := &h.Vars[i]
		req, err := access.Validate(h, v, []int64{int64(r * w.piece)}, []int64{int64(w.piece)}, nil, true)
		if err != nil {
			return mpiioReq{}, err
		}
		segs = append(segs, access.FileSegments(h, v, req)...)
		if ext, err = cdf.EncodeSlice(ext, nctype.Float, w.buf[r][i*w.piece:(i+1)*w.piece]); err != nil {
			return mpiioReq{}, err
		}
	}
	last := segs[len(segs)-1]
	view, err := mpitype.FromSegments(segs, last.Off+last.Len)
	return mpiioReq{view: view, ext: ext}, err
}

func (w *metaWL) layers(m map[string]float64, wc cycleCounts) error {
	var err error
	if w.img, err = fileImage(w.fsys, metaFile, w.img); err != nil {
		return err
	}
	h, err := cdf.Decode(w.img)
	if err != nil {
		return err
	}
	if err := headerLayers(m, h, w.names, w.ranks, w.mach.Net); err != nil {
		return err
	}
	n := int64(w.varLen())
	p := int64(w.piece)
	if m["mpitype.subarray_ms"], err = timeMS(reps, func() error {
		_, err := mpitype.Subarray([]int64{n}, []int64{p}, []int64{0}, 4)
		return err
	}); err != nil {
		return err
	}
	reqs := make([][]mpiioReq, w.ranks)
	for r := range reqs {
		q, err := w.fusedReq(h, r)
		if err != nil {
			return err
		}
		reqs[r] = []mpiioReq{q}
	}
	if err := flattenLayers(m, mpitype.Datatype{}, reqs[0][0].view); err != nil {
		return err
	}
	piece := w.buf[0][:w.piece]
	ext := make([]byte, 0, 4*w.piece)
	if m["cdf.encode_ms"], err = timeMS(reps, func() error {
		_, err := cdf.EncodeSlice(ext[:0], nctype.Float, piece)
		return err
	}); err != nil {
		return err
	}
	enc := reqs[0][0].ext[:4*w.piece]
	if m["cdf.decode_ms"], err = timeMS(reps, func() error {
		return cdf.DecodeSlice(enc, nctype.Float, piece)
	}); err != nil {
		return err
	}
	return dataLayers(m, wc, reqs, w.mach, w.img)
}
