package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"pnetcdf/internal/bench"
	"pnetcdf/internal/cdf"
	"pnetcdf/internal/core"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
)

// arrayDims is the Fig. 6 float array: 128x512x512, 128 MiB.
var arrayDims = [3]int64{128, 512, 512}

const arrayVar = "tt"

// arrayElems is the element count of the whole array.
func arrayElems() int64 { return arrayDims[0] * arrayDims[1] * arrayDims[2] }

// arrayIndex is the row-major index of element (z, y, x) of the array.
func arrayIndex(z, y, x int64) int64 { return (z*arrayDims[1]+y)*arrayDims[2] + x }

// arrayWL writes and reads back the Fig. 6 3-D array under the YX
// partition with 4 ranks on the Blue Horizon model: one collective call
// per phase, each rank's block 32,768 runs of 1 KiB in the file.
type arrayWL struct {
	ranks int
	part  bench.Partition
	mach  bench.MachineSpec
	fsys  *pfs.FS

	start, count [][3]int64
	// buf[r] is rank r's block: the write input and the read destination.
	buf [][]float32
	// want is the expected external data of the whole array.
	want []byte
	img  []byte
}

const arrayFile = "array.nc"

func newArray() *arrayWL {
	return &arrayWL{ranks: 4, part: bench.PartYX, mach: bench.SDSCBlueHorizon()}
}

func (w *arrayWL) describe() string {
	return fmt.Sprintf("%d ranks, %v partition, %s, default hints", w.ranks, w.part, w.mach.Name)
}

func (w *arrayWL) bytesPerCycle() int64 { return 4 * arrayElems() }

// forRows calls fn for every row of rank r's block with the row's index
// in the block and in the array; a row is count[2] elements.
func (w *arrayWL) forRows(r int, fn func(bufRow, fileRow int64)) {
	s, k := w.start[r], w.count[r]
	i := int64(0)
	for z := s[0]; z < s[0]+k[0]; z++ {
		for y := s[1]; y < s[1]+k[1]; y++ {
			fn(i, arrayIndex(z, y, s[2]))
			i += k[2]
		}
	}
}

// arrayWant is the expected external data of the whole array.
func arrayWant(seed uint64) []byte {
	want := make([]byte, 4*arrayElems())
	for i := int64(0); i < arrayElems(); i++ {
		binary.BigEndian.PutUint32(want[4*i:], math.Float32bits(val32(seed, 1, i)))
	}
	return want
}

func (w *arrayWL) setup(seed uint64) error {
	w.fsys = w.mach.NewFS()
	w.start = make([][3]int64, w.ranks)
	w.count = make([][3]int64, w.ranks)
	w.buf = make([][]float32, w.ranks)
	w.want = arrayWant(seed)
	for r := 0; r < w.ranks; r++ {
		w.start[r], w.count[r] = bench.Decompose(w.part, arrayDims, w.ranks, r)
		k := w.count[r]
		buf := make([]float32, k[0]*k[1]*k[2])
		w.forRows(r, func(br, fr int64) {
			for x := int64(0); x < k[2]; x++ {
				buf[br+x] = math.Float32frombits(binary.BigEndian.Uint32(w.want[4*(fr+x):]))
			}
		})
		w.buf[r] = buf
	}
	return nil
}

func (w *arrayWL) write(tr *tracer) (float64, int64, error) {
	w.fsys.ResetClock()
	return runRanks(w.ranks, w.mach.Net, tr, w.writeRank)
}

func (w *arrayWL) writeRank(c *mpi.Comm, pr *probe) (ops int64, err error) {
	r := c.Rank()
	d, err := core.Create(c, w.fsys, arrayFile, nctype.Clobber, nil)
	ops++
	if err != nil {
		return ops, err
	}
	t := pr.start()
	var dims [3]int
	for i, name := range []string{"Z", "Y", "X"} {
		dims[i], err = d.DefDim(name, arrayDims[i])
		ops++
		if err != nil {
			return ops, err
		}
	}
	v, err := d.DefVar(arrayVar, nctype.Float, dims[:])
	ops++
	if err != nil {
		return ops, err
	}
	pr.stop("core.define", t)
	t = pr.start()
	err = d.EndDef()
	pr.stop("core.enddef", t)
	ops++
	if err != nil {
		return ops, err
	}
	t = pr.start()
	err = d.PutVaraAll(v, w.start[r][:], w.count[r][:], w.buf[r])
	pr.stop("core.put", t)
	ops++
	if err != nil {
		return ops, err
	}
	ops++
	return ops, d.Close()
}

func (w *arrayWL) read(tr *tracer) (float64, int64, error) {
	w.fsys.ResetClock()
	return runRanks(w.ranks, w.mach.Net, tr, w.readRank)
}

func (w *arrayWL) readRank(c *mpi.Comm, pr *probe) (ops int64, err error) {
	r := c.Rank()
	t := pr.start()
	d, err := core.Open(c, w.fsys, arrayFile, nctype.NoWrite, nil)
	pr.stop("core.open", t)
	ops++
	if err != nil {
		return ops, err
	}
	t = pr.start()
	v := d.VarID(arrayVar)
	pr.stop("core.lookup", t)
	ops++
	t = pr.start()
	err = d.GetVaraAll(v, w.start[r][:], w.count[r][:], w.buf[r])
	pr.stop("core.get", t)
	ops++
	if err != nil {
		return ops, err
	}
	ops++
	return ops, d.Close()
}

func (w *arrayWL) checkFile() (checks, bad int64) {
	var err error
	w.img, err = fileImage(w.fsys, arrayFile, w.img)
	checks += 2
	if err != nil {
		return checks, 1
	}
	h, bad := checkedHeader(w.img)
	if h == nil {
		return checks, bad
	}
	if !varMatches(h, w.img, arrayVar, nctype.Float, w.want) {
		bad++
	}
	return checks, bad
}

func (w *arrayWL) scramble() {
	for _, buf := range w.buf {
		for i := range buf {
			buf[i] = readSentinel32
		}
	}
}

func (w *arrayWL) checkRead() (checks, bad int64) {
	for r, buf := range w.buf {
		checks++
		good := true
		n := w.count[r][2]
		w.forRows(r, func(br, fr int64) {
			good = good && match32(buf[br:br+n], w.want[4*fr:])
		})
		if !good {
			bad++
		}
	}
	return checks, bad
}

func (w *arrayWL) layers(m map[string]float64, wc cycleCounts) error {
	var err error
	if w.img, err = fileImage(w.fsys, arrayFile, w.img); err != nil {
		return err
	}
	h, err := cdf.Decode(w.img)
	if err != nil {
		return err
	}
	if err := headerLayers(m, h, []string{arrayVar}, w.ranks, w.mach.Net); err != nil {
		return err
	}
	s, k := w.start[0], w.count[0]
	if m["mpitype.subarray_ms"], err = timeMS(reps, func() error {
		_, err := mpitype.Subarray(arrayDims[:], k[:], s[:], 4)
		return err
	}); err != nil {
		return err
	}
	reqs := make([][]mpiioReq, w.ranks)
	for r := range reqs {
		q, err := newReq(h, arrayVar, w.start[r][:], w.count[r][:], w.buf[r], nil)
		if err != nil {
			return err
		}
		reqs[r] = []mpiioReq{q}
	}
	q := reqs[0][0]
	if err := flattenLayers(m, mpitype.Datatype{}, q.view); err != nil {
		return err
	}
	ext := make([]byte, 0, len(q.ext))
	if m["cdf.encode_ms"], err = timeMS(reps, func() error {
		_, err := cdf.EncodeSlice(ext[:0], nctype.Float, w.buf[0])
		return err
	}); err != nil {
		return err
	}
	if m["cdf.decode_ms"], err = timeMS(reps, func() error {
		return cdf.DecodeSlice(q.ext, nctype.Float, w.buf[0])
	}); err != nil {
		return err
	}
	return dataLayers(m, wc, reqs, w.mach, w.img)
}
