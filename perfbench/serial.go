package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"pnetcdf/internal/bench"
	"pnetcdf/internal/cdf"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// serialWL is Fig. 6's baseline: one process writes and reads the whole
// 128 MiB array through the serial netcdf library on the Blue Horizon
// model, through one client link.
type serialWL struct {
	mach bench.MachineSpec
	fsys *pfs.FS
	// buf is the whole array: the write input and the read destination.
	buf []float32
	// want is the expected external data of the array.
	want []byte
	img  []byte
}

const serialFile = "serial.nc"

func newSerial() *serialWL { return &serialWL{mach: bench.SDSCBlueHorizon()} }

func (w *serialWL) describe() string {
	return fmt.Sprintf("1 process, serial netcdf, %s", w.mach.Name)
}

func (w *serialWL) bytesPerCycle() int64 { return 4 * arrayElems() }

func (w *serialWL) setup(seed uint64) error {
	w.fsys = w.mach.NewFS()
	w.want = arrayWant(seed)
	w.buf = make([]float32, arrayElems())
	for i := range w.buf {
		w.buf[i] = math.Float32frombits(binary.BigEndian.Uint32(w.want[4*i:]))
	}
	return nil
}

// instrument attaches a traced cycle's counters and spans to the file.
func instrument(tr *tracer, pf *pfs.File, sf **pfs.SerialFile) *probe {
	if tr == nil {
		return nil
	}
	st := iostat.New()
	rec := span.NewRecorder(0, func() float64 { return (*sf).Clock() })
	pf.SetStats(st, nil, 0)
	pf.SetSpans(rec)
	tr.stats = []*iostat.Stats{st}
	tr.recs = []*span.Recorder{rec}
	return tr.probe
}

func (w *serialWL) write(tr *tracer) (sim float64, ops int64, err error) {
	w.fsys.ResetClock()
	pf, t0 := w.fsys.Create(serialFile, 0)
	var sf *pfs.SerialFile
	pr := instrument(tr, pf, &sf)
	sf = pfs.NewSerialFile(pf, t0)
	d, err := netcdf.Create(sf, nctype.Clobber)
	ops++
	if err != nil {
		return sf.Clock(), ops, err
	}
	t := pr.start()
	var dims [3]int
	for i, name := range []string{"Z", "Y", "X"} {
		dims[i], err = d.DefDim(name, arrayDims[i])
		ops++
		if err != nil {
			return sf.Clock(), ops, err
		}
	}
	v, err := d.DefVar(arrayVar, nctype.Float, dims[:])
	pr.stop("netcdf.define", t)
	ops++
	if err != nil {
		return sf.Clock(), ops, err
	}
	ops++
	if err := d.EndDef(); err != nil {
		return sf.Clock(), ops, err
	}
	t = pr.start()
	err = d.PutVar(v, w.buf)
	pr.stop("netcdf.put", t)
	ops++
	if err != nil {
		return sf.Clock(), ops, err
	}
	ops++
	err = d.Close()
	return sf.Clock(), ops, err
}

func (w *serialWL) read(tr *tracer) (sim float64, ops int64, err error) {
	w.fsys.ResetClock()
	pf, t0, err := w.fsys.Open(serialFile, 0)
	if err != nil {
		return 0, 1, err
	}
	var sf *pfs.SerialFile
	pr := instrument(tr, pf, &sf)
	sf = pfs.NewSerialFile(pf, t0)
	t := pr.start()
	d, err := netcdf.Open(sf, nctype.NoWrite)
	pr.stop("netcdf.open", t)
	ops++
	if err != nil {
		return sf.Clock(), ops, err
	}
	v := d.VarID(arrayVar)
	ops++
	t = pr.start()
	err = d.GetVar(v, w.buf)
	pr.stop("netcdf.get", t)
	ops++
	if err != nil {
		return sf.Clock(), ops, err
	}
	ops++
	err = d.Close()
	return sf.Clock(), ops, err
}

func (w *serialWL) checkFile() (checks, bad int64) {
	var err error
	w.img, err = fileImage(w.fsys, serialFile, w.img)
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

func (w *serialWL) scramble() {
	for i := range w.buf {
		w.buf[i] = readSentinel32
	}
}

func (w *serialWL) checkRead() (checks, bad int64) {
	if !match32(w.buf, w.want) {
		return 1, 1
	}
	return 1, 0
}

func (w *serialWL) layers(m map[string]float64, _ cycleCounts) error {
	var err error
	if w.img, err = fileImage(w.fsys, serialFile, w.img); err != nil {
		return err
	}
	h, err := cdf.Decode(w.img)
	if err != nil {
		return err
	}
	if err := cdfHeaderLayers(m, h, []string{arrayVar}); err != nil {
		return err
	}
	if err := pfsLayers(m, w.mach.FS, w.img); err != nil {
		return err
	}
	// Encode into the image's own data region: the bytes written are the
	// bytes already there.
	v := &h.Vars[0]
	data := w.img[v.Begin:v.Begin]
	if m["cdf.encode_ms"], err = timeMS(reps, func() error {
		_, err := cdf.EncodeSlice(data, nctype.Float, w.buf)
		return err
	}); err != nil {
		return err
	}
	m["cdf.decode_ms"], err = timeMS(reps, func() error {
		return cdf.DecodeSlice(w.img[v.Begin:], nctype.Float, w.buf)
	})
	return err
}
