package core

import (
	"fmt"
	"sort"

	"pnetcdf/internal/access"
	"pnetcdf/internal/cdf"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
)

// Nonblocking (batched) data access. The paper's record-variable discussion
// (§4.2.2) observes that record interleaving destroys contiguity and that
// collecting "multiple I/O requests over a number of record variables"
// recovers large transfers. IPutVara/IGetVara queue requests; WaitAll fuses
// every queued request into a single collective MPI-IO operation (one write,
// one read), so accesses to many variables — e.g. one record of each of 24
// FLASH unknowns — reach the file system as one large, mostly contiguous
// request instead of many small ones.

// Consistency note: between IPutVara and WaitAll the queued data exists
// only in the queue — the file still holds the old bytes. IPutVara
// invalidates the local prefetched copy, but a *blocking* GetVara issued in
// that window would read the file and observe stale data. The data paths
// guard the window: a blocking read of a variable with a queued write
// returns nctype.ErrPending (see getFlex) until WaitAll lands the write.
type pendingOp struct {
	write    bool
	varid    int
	v        *cdf.Var
	req      access.Request
	ext      []byte // writes: encoded external data
	data     any    // reads: destination buffer
	rangeErr error  // writes: deferred NC_ERANGE from the conversion
}

// IPutVara queues a nonblocking subarray write. The data is converted and
// buffered immediately, so the caller may reuse the slice. Returns a request
// index (diagnostic only; WaitAll completes all requests).
func (d *Dataset) IPutVara(varid int, start, count []int64, data any) (int, error) {
	if err := d.CheckData(); err != nil {
		return -1, err
	}
	if d.ReadOnly {
		return -1, nctype.ErrPerm
	}
	v, err := d.VarByID(varid)
	if err != nil {
		return -1, err
	}
	req, err := access.Validate(d.Hdr, v, start, count, nil, true)
	if err != nil {
		return -1, err
	}
	linear, err := netcdf.SliceHead(data, req.NElems)
	if err != nil {
		return -1, err
	}
	ext, encErr := cdf.EncodeSlice(nil, v.Type, linear)
	if encErr != nil && encErr != cdf.ErrRange {
		return -1, encErr
	}
	d.invalidate(varid)
	// netCDF range semantics: out-of-range values are written wrapped and
	// NC_ERANGE is reported — but the write is queued, so the error is
	// deferred with the operation and surfaced by WaitAll, matching the
	// blocking PutVara's return.
	d.pending = append(d.pending, pendingOp{write: true, varid: varid, v: v, req: req, ext: ext, rangeErr: encErr})
	return len(d.pending) - 1, nil
}

// IGetVara queues a nonblocking subarray read into data, which must remain
// valid until WaitAll.
func (d *Dataset) IGetVara(varid int, start, count []int64, data any) (int, error) {
	if err := d.CheckData(); err != nil {
		return -1, err
	}
	v, err := d.VarByID(varid)
	if err != nil {
		return -1, err
	}
	req, err := access.Validate(d.Hdr, v, start, count, nil, false)
	if err != nil {
		return -1, err
	}
	if cdf.SliceLen(data) < int(req.NElems) {
		return -1, nctype.ErrCountMismatch
	}
	d.pending = append(d.pending, pendingOp{write: false, varid: varid, v: v, req: req, data: data})
	return len(d.pending) - 1, nil
}

// pendingWrite reports whether a queued (not yet waited) write targets
// varid — the stale-read window getFlex guards against.
func (d *Dataset) pendingWrite(varid int) bool {
	for i := range d.pending {
		if d.pending[i].write && d.pending[i].varid == varid {
			return true
		}
	}
	return false
}

// PendingRequests reports the queue length.
func (d *Dataset) PendingRequests() int { return len(d.pending) }

// WaitAll collectively completes all queued requests: one fused collective
// write followed by one fused collective read. Every process must call it,
// even with an empty queue.
//
// The queue is consumed by completion — success OR error. The fused
// accesses agree their errors collectively, so on failure every rank
// returns the same error with an empty queue: a caller that retries
// WaitAll after a transient fault re-runs an empty (no-op) batch instead
// of double-applying the queued writes, and Close no longer wedges on
// "nonblocking requests pending" with no way to drain them.
//
// If the batch itself succeeds but a queued IPutVara converted
// out-of-range values, WaitAll returns cdf.ErrRange after completing every
// operation — the deferred form of the blocking path's "write wrapped
// values, report NC_ERANGE" contract.
func (d *Dataset) WaitAll() error {
	if err := d.CheckData(); err != nil {
		return err
	}
	if d.indep {
		return nctype.ErrIndepMode
	}
	err := d.waitAll()
	d.pending = d.pending[:0]
	return err
}

// waitAll runs the fused batch; WaitAll clears the queue around it.
func (d *Dataset) waitAll() error {
	var writes, reads []*pendingOp
	for i := range d.pending {
		op := &d.pending[i]
		if op.write {
			writes = append(writes, op)
		} else {
			reads = append(reads, op)
		}
	}
	// Agree on record growth — and on whether any rank queued a write at
	// all — across every process in one reduction.
	last := int64(-1)
	for _, op := range writes {
		if op.req.LastRecord > last {
			last = op.req.LastRecord
		}
	}
	anyWrites := int64(0)
	if len(writes) > 0 {
		anyWrites = 1
	}
	agreed := d.comm.AllreduceI64([]int64{last, anyWrites}, mpi.OpMax)
	if last = agreed[0]; last >= d.Hdr.NumRecs {
		d.Hdr.NumRecs = last + 1
		if err := d.writeNumRecs(); err != nil {
			return err
		}
	}
	// Fused write — skipped collectively when no rank queued one, so a
	// read-only batch never issues a collective write (which a NoWrite
	// file would refuse).
	if agreed[1] != 0 {
		wview, wbuf, _, err := fuse(d.Hdr, writes)
		if err != nil {
			return err
		}
		if err := d.f.SetView(0, wview); err != nil {
			return err
		}
		if err := d.f.WriteAtAll(0, wbuf); err != nil {
			return err
		}
	}
	// Serve reads of prefetched variables from the local copy, like the
	// blocking path does — the fused collective read covers only the
	// misses. The file-system collective below still runs on every rank
	// (with an empty request where everything was cached), so ranks whose
	// caches diverge — invalidation is local — stay in lockstep.
	uncached := reads[:0]
	for _, op := range reads {
		if _, ok := d.cache[op.varid]; !ok {
			uncached = append(uncached, op)
			continue
		}
		ext := make([]byte, int(op.req.NElems)*op.v.Type.Size())
		d.cachedRead(op.varid, op.req, ext)
		linear, err := netcdf.SliceHead(op.data, op.req.NElems)
		if err != nil {
			return err
		}
		if err := cdf.DecodeSlice(ext, op.v.Type, linear); err != nil {
			return err
		}
	}
	reads = uncached
	// Fused read.
	rview, rbuf, windows, err := fuse(d.Hdr, reads)
	if err != nil {
		return err
	}
	if err := d.f.SetView(0, rview); err != nil {
		return err
	}
	if err := d.f.ReadAtAll(0, rbuf); err != nil {
		return err
	}
	// Reassemble each op's external bytes (the windows alias rbuf, which the
	// read has now filled) and decode into the caller's buffer.
	for i, op := range reads {
		var chunk []byte
		if len(windows[i]) == 1 {
			chunk = windows[i][0]
		} else {
			var n int64
			for _, w := range windows[i] {
				n += int64(len(w))
			}
			chunk = make([]byte, 0, n)
			for _, w := range windows[i] {
				chunk = append(chunk, w...)
			}
		}
		linear, err := netcdf.SliceHead(op.data, op.req.NElems)
		if err != nil {
			return err
		}
		if err := cdf.DecodeSlice(chunk, op.v.Type, linear); err != nil {
			return err
		}
	}
	// Every operation landed; surface any deferred conversion range error.
	for _, op := range writes {
		if op.rangeErr != nil {
			return op.rangeErr
		}
	}
	return nil
}

// fuse merges the file extents of several operations into one view plus a
// matching linear buffer. For writes the buffer carries the data (in file
// order). The returned windows[i] alias the buffer regions belonging to
// operation i, in that op's own file order — for reads, the caller fills the
// buffer first and concatenates the windows afterwards.
func fuse(h *cdf.Header, ops []*pendingOp) (mpitype.Datatype, []byte, [][][]byte, error) {
	type piece struct {
		seg  mpitype.Segment
		op   int
		data []byte // writes only
	}
	var pieces []piece
	var total int64
	for i, op := range ops {
		segs := access.FileSegments(h, op.v, op.req)
		pos := int64(0)
		for _, s := range segs {
			p := piece{seg: s, op: i}
			if op.write {
				p.data = op.ext[pos : pos+s.Len]
			}
			pos += s.Len
			pieces = append(pieces, p)
			total += s.Len
		}
	}
	sort.SliceStable(pieces, func(a, b int) bool { return pieces[a].seg.Off < pieces[b].seg.Off })
	buf := make([]byte, total)
	segs := make([]mpitype.Segment, 0, len(pieces))
	// Per-op windows: pieces are globally ascending in file offset, so each
	// op's windows appear in its own ascending file order — the order
	// FileSegments maps to the op's linear buffer.
	windows := make([][][]byte, len(ops))
	pos := int64(0)
	for _, p := range pieces {
		if n := len(segs); n > 0 && segs[n-1].Off+segs[n-1].Len > p.seg.Off {
			return mpitype.Datatype{}, nil, nil, fmt.Errorf("pnetcdf: overlapping nonblocking requests at offset %d", p.seg.Off)
		}
		segs = append(segs, p.seg)
		window := buf[pos : pos+p.seg.Len]
		if p.data != nil {
			copy(window, p.data)
		}
		windows[p.op] = append(windows[p.op], window)
		pos += p.seg.Len
	}
	end := int64(0)
	if len(segs) > 0 {
		end = segs[len(segs)-1].Off + segs[len(segs)-1].Len
	}
	view, err := mpitype.FromSegments(segs, end)
	if err != nil {
		return mpitype.Datatype{}, nil, nil, err
	}
	return view, buf, windows, nil
}
