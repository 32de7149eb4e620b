package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"pnetcdf/internal/bench"
	"pnetcdf/internal/cdf"
	"pnetcdf/internal/core"
	"pnetcdf/internal/flash"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
)

// flashWL is the FLASH I/O checkpoint and restart of the paper's Fig. 7:
// 8 ranks, 80 guarded 8x8x8 blocks each, 24 double unknowns plus the AMR
// tree variables, on the ASCI Frost model. It defines the same file as
// flash.WriteCheckpointPnetCDF, but every block is generated before the
// timed region. Restart reads each unknown back into the guarded blocks.
type flashWL struct {
	cfg   flash.Config
	ranks int
	mach  bench.MachineSpec
	fsys  *pfs.FS
	names []string // the unknowns
	all   []string // the tree variables, then the unknowns

	// want[v] is the expected external data of variable all[v], built
	// from the generator at set-up; verification compares against it.
	want [][]byte
	// unk[r][i] holds rank r's guarded blocks of unknown i: the write
	// input, and the read destination of the next read cycle.
	unk [][][]float64
	// Tree variables per rank: inputs, and separate read destinations.
	lref, node, rLref, rNode [][]int32
	coords, rCoords          [][]float64

	img []byte
}

const (
	flashFile   = "flash.nc"
	guardPoison = -9.99e33 // FLASH's guard-cell value; never in a file
	treeVar     = 30       // generator index of the tree variables
	intSentinel = int32(0x7EADBEEF)
)

func newFlash() *flashWL {
	return &flashWL{cfg: flash.Default8(), ranks: 8, mach: bench.ASCIFrost()}
}

func (w *flashWL) describe() string {
	return fmt.Sprintf("%d ranks, %s, default hints", w.ranks, w.mach.Name)
}

func (w *flashWL) guarded() (gz, gy, gx int) {
	g := 2 * w.cfg.NGuard
	return w.cfg.NZB + g, w.cfg.NYB + g, w.cfg.NXB + g
}

func (w *flashWL) cellsPerBlock() int { return w.cfg.NZB * w.cfg.NYB * w.cfg.NXB }

func (w *flashWL) bytesPerCycle() int64 {
	blocks := int64(w.ranks * w.cfg.BlocksPerProc)
	return blocks * (int64(w.cellsPerBlock()*w.cfg.NVar)*8 + 4 + 4 + 3*8)
}

// forRows calls fn for every interior row (NXB cells) of one rank's
// guarded buffer with the row's index in the buffer and the index of its
// first cell in the file variable.
func (w *flashWL) forRows(rank int, fn func(bufRow, fileRow int)) {
	cfg := w.cfg
	gz, gy, gx := w.guarded()
	g := cfg.NGuard
	for b := 0; b < cfg.BlocksPerProc; b++ {
		gb := rank*cfg.BlocksPerProc + b
		for z := 0; z < cfg.NZB; z++ {
			for y := 0; y < cfg.NYB; y++ {
				fn(((b*gz+z+g)*gy+y+g)*gx+g, ((gb*cfg.NZB+z)*cfg.NYB+y)*cfg.NXB)
			}
		}
	}
}

func (w *flashWL) setup(seed uint64) error {
	cfg := w.cfg
	bpp := cfg.BlocksPerProc
	tot := w.ranks * bpp
	cells := tot * w.cellsPerBlock()
	w.fsys = w.mach.NewFS()
	w.names = flash.UnknownNames(cfg.NVar)
	w.all = append([]string{"lrefine", "nodetype", "coordinates"}, w.names...)
	w.want = make([][]byte, len(w.all))
	lref, node, coords := make([]byte, 4*tot), make([]byte, 4*tot), make([]byte, 8*3*tot)
	for gb := 0; gb < tot; gb++ {
		binary.BigEndian.PutUint32(lref[4*gb:], uint32(hash(seed, treeVar, int64(gb))%4+1))
		binary.BigEndian.PutUint32(node[4*gb:], uint32(hash(seed, treeVar+1, int64(gb))%2+1))
		for d := 0; d < 3; d++ {
			x := val64(seed, treeVar+2, int64(3*gb+d))
			binary.BigEndian.PutUint64(coords[8*(3*gb+d):], math.Float64bits(x))
		}
	}
	w.want[0], w.want[1], w.want[2] = lref, node, coords
	for i := range w.names {
		want := make([]byte, 8*cells)
		for j := 0; j < cells; j++ {
			binary.BigEndian.PutUint64(want[8*j:], math.Float64bits(val64(seed, int64(i+1), int64(j))))
		}
		w.want[3+i] = want
	}

	// The inputs are the expected data, decoded into each rank's layout.
	gz, gy, gx := w.guarded()
	n := bpp * gz * gy * gx
	w.unk = make([][][]float64, w.ranks)
	w.lref, w.node = make([][]int32, w.ranks), make([][]int32, w.ranks)
	w.rLref, w.rNode = make([][]int32, w.ranks), make([][]int32, w.ranks)
	w.coords, w.rCoords = make([][]float64, w.ranks), make([][]float64, w.ranks)
	for r := 0; r < w.ranks; r++ {
		w.unk[r] = make([][]float64, cfg.NVar)
		for i := range w.unk[r] {
			buf := make([]float64, n)
			for j := range buf {
				buf[j] = guardPoison
			}
			want := w.want[3+i]
			w.forRows(r, func(br, fr int) {
				for x := 0; x < cfg.NXB; x++ {
					buf[br+x] = math.Float64frombits(binary.BigEndian.Uint64(want[8*(fr+x):]))
				}
			})
			w.unk[r][i] = buf
		}
		w.lref[r], w.node[r] = make([]int32, bpp), make([]int32, bpp)
		w.rLref[r], w.rNode[r] = make([]int32, bpp), make([]int32, bpp)
		w.coords[r], w.rCoords[r] = make([]float64, 3*bpp), make([]float64, 3*bpp)
		for b := 0; b < bpp; b++ {
			gb := r*bpp + b
			w.lref[r][b] = int32(binary.BigEndian.Uint32(lref[4*gb:]))
			w.node[r][b] = int32(binary.BigEndian.Uint32(node[4*gb:]))
			for d := 0; d < 3; d++ {
				w.coords[r][3*b+d] = math.Float64frombits(binary.BigEndian.Uint64(coords[8*(3*gb+d):]))
			}
		}
	}
	return nil
}

// memtype is the flexible-API memory type that strips the guard cells.
func (w *flashWL) memtype() (mpitype.Datatype, error) {
	cfg := w.cfg
	gz, gy, gx := w.guarded()
	g := int64(cfg.NGuard)
	return mpitype.Subarray(
		[]int64{int64(cfg.BlocksPerProc), int64(gz), int64(gy), int64(gx)},
		[]int64{int64(cfg.BlocksPerProc), int64(cfg.NZB), int64(cfg.NYB), int64(cfg.NXB)},
		[]int64{0, g, g, g}, 1)
}

func (w *flashWL) write(tr *tracer) (float64, int64, error) {
	w.fsys.ResetClock()
	return runRanks(w.ranks, w.mach.Net, tr, w.writeRank)
}

func (w *flashWL) writeRank(c *mpi.Comm, pr *probe) (ops int64, err error) {
	cfg := w.cfg
	r := c.Rank()
	bpp := cfg.BlocksPerProc
	first := int64(r * bpp)
	d, err := core.Create(c, w.fsys, flashFile, nctype.Bit64Offset, nil)
	ops++
	if err != nil {
		return ops, err
	}
	t := pr.start()
	var dims [5]int
	for i, dd := range []struct {
		name string
		n    int
	}{{"tot_blocks", w.ranks * bpp}, {"nzb", cfg.NZB}, {"nyb", cfg.NYB}, {"nxb", cfg.NXB}, {"ndim", 3}} {
		dims[i], err = d.DefDim(dd.name, int64(dd.n))
		ops++
		if err != nil {
			return ops, err
		}
	}
	varids := make([]int, 0, 3+cfg.NVar)
	def := func(name string, typ nctype.Type, dimids ...int) error {
		id, err := d.DefVar(name, typ, dimids)
		ops++
		varids = append(varids, id)
		return err
	}
	if err := def("lrefine", nctype.Int, dims[0]); err != nil {
		return ops, err
	}
	if err := def("nodetype", nctype.Int, dims[0]); err != nil {
		return ops, err
	}
	if err := def("coordinates", nctype.Double, dims[0], dims[4]); err != nil {
		return ops, err
	}
	for _, name := range w.names {
		if err := def(name, nctype.Double, dims[0], dims[1], dims[2], dims[3]); err != nil {
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
	bstart, bcount := []int64{first}, []int64{int64(bpp)}
	puts := []struct {
		start, count []int64
		data         any
	}{
		{bstart, bcount, w.lref[r]},
		{bstart, bcount, w.node[r]},
		{[]int64{first, 0}, []int64{int64(bpp), 3}, w.coords[r]},
	}
	for i, p := range puts {
		t = pr.start()
		err = d.PutVaraAll(varids[i], p.start, p.count, p.data)
		pr.stop("core.put", t)
		ops++
		if err != nil {
			return ops, err
		}
	}
	memtype, err := w.memtype()
	if err != nil {
		return ops, err
	}
	fstart := []int64{first, 0, 0, 0}
	fcount := []int64{int64(bpp), int64(cfg.NZB), int64(cfg.NYB), int64(cfg.NXB)}
	for i := range w.names {
		t = pr.start()
		err = d.PutVaraTypeAll(varids[3+i], fstart, fcount, w.unk[r][i], memtype)
		pr.stop("core.put", t)
		ops++
		if err != nil {
			return ops, err
		}
	}
	ops++
	return ops, d.Close()
}

func (w *flashWL) read(tr *tracer) (float64, int64, error) {
	w.fsys.ResetClock()
	return runRanks(w.ranks, w.mach.Net, tr, w.readRank)
}

func (w *flashWL) readRank(c *mpi.Comm, pr *probe) (ops int64, err error) {
	cfg := w.cfg
	r := c.Rank()
	bpp := cfg.BlocksPerProc
	first := int64(r * bpp)
	t := pr.start()
	d, err := core.Open(c, w.fsys, flashFile, nctype.NoWrite, nil)
	pr.stop("core.open", t)
	ops++
	if err != nil {
		return ops, err
	}
	ids := make([]int, len(w.all))
	t = pr.start()
	for i, name := range w.all {
		ids[i] = d.VarID(name)
	}
	pr.stop("core.lookup", t)
	ops += int64(len(w.all))
	for i, id := range ids {
		if id < 0 {
			return ops, fmt.Errorf("restart: variable %s missing", w.all[i])
		}
	}
	bstart, bcount := []int64{first}, []int64{int64(bpp)}
	gets := []struct {
		start, count []int64
		data         any
	}{
		{bstart, bcount, w.rLref[r]},
		{bstart, bcount, w.rNode[r]},
		{[]int64{first, 0}, []int64{int64(bpp), 3}, w.rCoords[r]},
	}
	for i, g := range gets {
		t = pr.start()
		err = d.GetVaraAll(ids[i], g.start, g.count, g.data)
		pr.stop("core.get", t)
		ops++
		if err != nil {
			return ops, err
		}
	}
	memtype, err := w.memtype()
	if err != nil {
		return ops, err
	}
	fstart := []int64{first, 0, 0, 0}
	fcount := []int64{int64(bpp), int64(cfg.NZB), int64(cfg.NYB), int64(cfg.NXB)}
	for i := range w.names {
		t = pr.start()
		err = d.GetVaraTypeAll(ids[3+i], fstart, fcount, w.unk[r][i], memtype)
		pr.stop("core.get", t)
		ops++
		if err != nil {
			return ops, err
		}
	}
	ops++
	return ops, d.Close()
}

func (w *flashWL) checkFile() (checks, bad int64) {
	var err error
	w.img, err = fileImage(w.fsys, flashFile, w.img)
	checks++
	if err != nil {
		return checks, 1
	}
	h, bad := checkedHeader(w.img)
	if h == nil {
		return checks, bad
	}
	types := []nctype.Type{nctype.Int, nctype.Int, nctype.Double}
	for v, name := range w.all {
		t := nctype.Double
		if v < len(types) {
			t = types[v]
		}
		checks++
		if !varMatches(h, w.img, name, t, w.want[v]) {
			bad++
		}
	}
	return checks, bad
}

func (w *flashWL) scramble() {
	for r := range w.unk {
		for _, buf := range w.unk[r] {
			w.forRows(r, func(br, _ int) {
				for x := 0; x < w.cfg.NXB; x++ {
					buf[br+x] = readSentinel64
				}
			})
		}
		for b := range w.rLref[r] {
			w.rLref[r][b], w.rNode[r][b] = intSentinel, intSentinel
		}
		for j := range w.rCoords[r] {
			w.rCoords[r][j] = readSentinel64
		}
	}
}

// checkRead verifies every restart buffer: interior cells hold the
// expected data and guard cells still hold the poison.
func (w *flashWL) checkRead() (checks, bad int64) {
	bpp := w.cfg.BlocksPerProc
	nx := w.cfg.NXB
	poison := math.Float64bits(guardPoison)
	interior := bpp * w.cellsPerBlock()
	for r := range w.unk {
		for i, buf := range w.unk[r] {
			checks++
			want := w.want[3+i]
			good := true
			w.forRows(r, func(br, fr int) {
				good = good && match64(buf[br:br+nx], want[8*fr:])
			})
			guards := 0
			for _, x := range buf {
				if math.Float64bits(x) == poison {
					guards++
				}
			}
			if !good || guards != len(buf)-interior {
				bad++
			}
		}
		checks++
		first := r * bpp
		good := match64(w.rCoords[r], w.want[2][8*3*first:])
		for b := 0; b < bpp; b++ {
			gb := first + b
			good = good && uint32(w.rLref[r][b]) == be32(w.want[0], int64(4*gb)) &&
				uint32(w.rNode[r][b]) == be32(w.want[1], int64(4*gb))
		}
		if !good {
			bad++
		}
	}
	return checks, bad
}

// requests builds each rank's data requests as the core layer would pass
// them to MPI-IO: the flattened file view and the encoded bytes.
func (w *flashWL) requests(h *cdf.Header) ([][]mpiioReq, error) {
	cfg := w.cfg
	bpp := int64(cfg.BlocksPerProc)
	memtype, err := w.memtype()
	if err != nil {
		return nil, err
	}
	out := make([][]mpiioReq, w.ranks)
	for r := 0; r < w.ranks; r++ {
		first := int64(r) * bpp
		tree := []struct {
			name         string
			start, count []int64
			data         any
		}{
			{"lrefine", []int64{first}, []int64{bpp}, w.lref[r]},
			{"nodetype", []int64{first}, []int64{bpp}, w.node[r]},
			{"coordinates", []int64{first, 0}, []int64{bpp, 3}, w.coords[r]},
		}
		for _, t := range tree {
			q, err := newReq(h, t.name, t.start, t.count, t.data, nil)
			if err != nil {
				return nil, err
			}
			out[r] = append(out[r], q)
		}
		for i, name := range w.names {
			q, err := newReq(h, name, []int64{first, 0, 0, 0},
				[]int64{bpp, int64(cfg.NZB), int64(cfg.NYB), int64(cfg.NXB)}, w.unk[r][i], memtype.Segments())
			if err != nil {
				return nil, err
			}
			out[r] = append(out[r], q)
		}
	}
	return out, nil
}

func (w *flashWL) layers(m map[string]float64, wc cycleCounts) error {
	var err error
	if w.img, err = fileImage(w.fsys, flashFile, w.img); err != nil {
		return err
	}
	h, err := cdf.Decode(w.img)
	if err != nil {
		return err
	}
	if err := headerLayers(m, h, w.all, w.ranks, w.mach.Net); err != nil {
		return err
	}
	cfg := w.cfg
	gz, gy, gx := w.guarded()
	g := int64(cfg.NGuard)
	memtype, err := w.memtype()
	if err != nil {
		return err
	}
	memsegs := memtype.Segments()
	if m["mpitype.subarray_ms"], err = timeMS(reps, func() error {
		_, err := mpitype.Subarray(
			[]int64{int64(cfg.BlocksPerProc), int64(gz), int64(gy), int64(gx)},
			[]int64{int64(cfg.BlocksPerProc), int64(cfg.NZB), int64(cfg.NYB), int64(cfg.NXB)},
			[]int64{0, g, g, g}, 1)
		return err
	}); err != nil {
		return err
	}
	reqs, err := w.requests(h)
	if err != nil {
		return err
	}
	q := reqs[0][3] // rank 0's first unknown
	if err := flattenLayers(m, memtype, q.view); err != nil {
		return err
	}
	ext := make([]byte, 0, len(q.ext))
	if m["cdf.encode_ms"], err = timeMS(reps, func() error {
		_, err := cdf.EncodeSegs(ext[:0], nctype.Double, w.unk[0][0], memsegs)
		return err
	}); err != nil {
		return err
	}
	if m["cdf.decode_ms"], err = timeMS(reps, func() error {
		return cdf.DecodeSegs(q.ext, nctype.Double, memsegs, w.unk[0][0])
	}); err != nil {
		return err
	}
	return dataLayers(m, wc, reqs, w.mach, w.img)
}
