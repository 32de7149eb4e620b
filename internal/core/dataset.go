// Package core is PnetCDF — the paper's contribution: a parallel interface
// to netCDF classic files, built on MPI-IO. It mirrors the ncmpi_* C API:
//
//   - Create/Open take an MPI communicator and an MPI_Info hint object; the
//     file is opened, operated and closed by the participating processes as
//     a group (paper §4.1).
//   - The header lives as a synchronized local copy on every process: the
//     root reads it and broadcasts at open; define-mode, attribute and
//     inquiry calls are in-memory operations on the copy, with cross-process
//     consistency verified collectively; the root writes the header back at
//     the end of define mode (paper §4.2.1).
//   - Data access has two modes, collective (default, functions suffixed
//     All) and independent (between BeginIndepData/EndIndepData); every
//     access is translated into an MPI-IO file view built from the variable
//     metadata plus start/count/stride/imap, so MPI-IO's data sieving and
//     two-phase optimizations apply (paper §4.2.2).
//   - The high-level API (PutVara..., GetVars..., ...) takes contiguous Go
//     slices, like the original netCDF calls; the flexible API additionally
//     takes an MPI datatype describing noncontiguous memory. The high-level
//     routines are written on top of the flexible ones, as in the paper.
package core

import (
	"errors"
	"fmt"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/iostat"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/mpiio"
	"pnetcdf/internal/mpitype"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/pfs"
	"pnetcdf/internal/span"
)

// GlobalID addresses the dataset itself in attribute calls (NC_GLOBAL).
const GlobalID = cdf.GlobalID

// Dataset is an open parallel netCDF dataset. Every process in the
// communicator holds its own *Dataset whose header copies are kept
// identical by the collective define-mode calls. The embedded schema
// carries the define-mode and inquiry calls, which every process must make
// with identical arguments (EndDef verifies); a data-mode header change is
// committed collectively through CommitHeader.
type Dataset struct {
	cdf.Schema
	comm *mpi.Comm
	fsys *pfs.FS
	f    *mpiio.File
	path string

	indep bool

	hAlign, vAlign int64
	fill           bool

	numrecsDirty bool // independent-mode record growth pending reconciliation

	// persistedNumRecs is the record count last written to (or read from)
	// the file header; the root uses it to keep on-disk numrecs updates
	// strictly monotonic. Meaningful on rank 0 only.
	persistedNumRecs int64

	// cache holds whole-variable external images loaded by the
	// nc_prefetch_vars hint (see prefetch.go); nil when the hint is absent.
	cache map[int][]byte

	// views caches flattened file views per (variable, access geometry);
	// cleared whenever a define-mode transition recomputes the layout.
	views map[viewKey]mpitype.Datatype

	pending []pendingOp // nonblocking iput/iget queue

	// st/tr/sp are the rank's iostat collectors and span recorder, cached
	// from the communicator (nil = off).
	st *iostat.Stats
	tr *iostat.Trace
	sp *span.Recorder
}

// Create collectively creates a new dataset, entering define mode. cmode may
// include nctype.NoClobber, nctype.Bit64Offset, nctype.Bit64Data. PnetCDF
// hints read from info: nc_header_align_size, nc_var_align_size.
func Create(comm *mpi.Comm, fsys *pfs.FS, path string, cmode int, info *mpi.Info) (*Dataset, error) {
	if comm == nil {
		return nil, nctype.ErrNullComm
	}
	amode := mpiio.ModeRdWr | mpiio.ModeCreate
	if cmode&nctype.NoClobber != 0 {
		amode |= mpiio.ModeExcl
	} else {
		amode |= mpiio.ModeTrunc
	}
	f, err := mpiio.Open(comm, fsys, path, amode, info)
	if err != nil {
		return nil, err
	}
	version := 1
	if cmode&nctype.Bit64Offset != 0 {
		version = 2
	}
	if cmode&nctype.Bit64Data != 0 {
		version = 5
	}
	d := &Dataset{
		comm: comm, fsys: fsys, f: f, path: path,
		hAlign: info.GetInt("nc_header_align_size", 1),
		vAlign: info.GetInt("nc_var_align_size", 1),
	}
	d.Schema = cdf.NewSchema(&cdf.Header{Version: version}, true, false, d)
	d.st, d.tr = comm.Proc().Stats(), comm.Proc().Trace()
	d.sp = comm.Proc().Spans()
	return d, nil
}

// Open collectively opens an existing dataset in data mode. omode is
// nctype.NoWrite or nctype.Write. The root reads the file header and
// broadcasts it; every process keeps a local copy (paper §4.2.1).
func Open(comm *mpi.Comm, fsys *pfs.FS, path string, omode int, info *mpi.Info) (*Dataset, error) {
	if comm == nil {
		return nil, nctype.ErrNullComm
	}
	amode := mpiio.ModeRdOnly
	if omode&nctype.Write != 0 {
		amode = mpiio.ModeRdWr
	}
	f, err := mpiio.Open(comm, fsys, path, amode, info)
	if err != nil {
		return nil, err
	}
	// Root fetches the header (growing the probe if needed, falling back to
	// the commit journal when the in-place header is torn) and broadcasts a
	// status first, so a root-side read failure is a collective error rather
	// than a hang.
	var blob []byte
	var recovered bool
	var rootErr error
	if comm.Rank() == 0 {
		blob, recovered, rootErr = readHeaderBlob(f)
	}
	status := int64(0)
	if rootErr != nil {
		status = 1
	} else if recovered {
		status = 2
	}
	status = mpi.DecodeI64s(comm.Bcast(0, mpi.EncodeI64s([]int64{status})))[0]
	if status == 1 {
		if rootErr != nil {
			return nil, rootErr
		}
		return nil, fmt.Errorf("pnetcdf: open %s: header read failed on root", path)
	}
	recovered = status == 2
	blob = comm.Bcast(0, blob)
	hdr, err := cdf.Decode(blob)
	if err != nil {
		return nil, err
	}
	if recovered {
		// The journaled (new) header may declare records that were lost with
		// the crash; clamp to what the file actually holds.
		if size, serr := f.Size(); serr == nil {
			if max := hdr.MaxRecsForSize(size); hdr.NumRecs > max {
				hdr.NumRecs = max
			}
		}
	}
	d := &Dataset{
		comm: comm, fsys: fsys, f: f, path: path,
		hAlign: info.GetInt("nc_header_align_size", 1),
		vAlign: info.GetInt("nc_var_align_size", 1),

		persistedNumRecs: hdr.NumRecs,
	}
	d.Schema = cdf.NewSchema(hdr, false, omode&nctype.Write == 0, d)
	d.st, d.tr = comm.Proc().Stats(), comm.Proc().Trace()
	d.sp = comm.Proc().Spans()
	d.st.Add(iostat.NCHeaderBcastBytes, int64(len(blob)))
	if recovered {
		d.st.Add(iostat.NCHeaderRecoveries, 1)
		if !d.ReadOnly {
			// Repair the torn in-place header from the journaled image.
			if err := d.writeHeaderCollective(); err != nil {
				return nil, err
			}
		}
	}
	if err := d.prefetch(info); err != nil {
		return nil, err
	}
	return d, nil
}

// readHeaderBlob reads enough of the file to decode the header. When the
// in-place header is torn (a crash during commit), it falls back to the
// commit journal at the file's tail; recovered reports that fallback.
func readHeaderBlob(f *mpiio.File) (blob []byte, recovered bool, err error) {
	size, err := f.Size()
	if err != nil {
		return nil, false, err
	}
	probe := int64(64 << 10)
	for {
		if probe > size {
			probe = size
		}
		buf := make([]byte, probe)
		if err := f.ReadRaw(buf, 0); err != nil {
			return nil, false, err
		}
		if _, derr := cdf.Decode(buf); derr == nil {
			return buf, false, nil
		}
		if probe >= size {
			if img := recoverJournal(f, size); img != nil {
				return img, true, nil
			}
			return buf, false, nil // undecodable; the caller reports it
		}
		probe *= 4
	}
}

// recoverJournal reads and verifies the commit journal terminating the
// file, returning the journaled header image or nil.
func recoverJournal(f *mpiio.File, size int64) []byte {
	if size < cdf.JournalTrailerSize {
		return nil
	}
	tr := make([]byte, cdf.JournalTrailerSize)
	if err := f.ReadRaw(tr, size-cdf.JournalTrailerSize); err != nil {
		return nil
	}
	n, crc, ok := cdf.ParseJournalTrailer(tr)
	if !ok || n > size-cdf.JournalTrailerSize {
		return nil
	}
	img := make([]byte, n)
	if err := f.ReadRaw(img, size-cdf.JournalTrailerSize-n); err != nil {
		return nil
	}
	if !cdf.VerifyJournalImage(img, crc) {
		return nil
	}
	if _, err := cdf.Decode(img); err != nil {
		return nil
	}
	return img
}

// Comm returns the dataset's communicator.
func (d *Dataset) Comm() *mpi.Comm { return d.comm }

// SetFill enables prefilling of variables at EndDef (PnetCDF defaults to
// nofill; this mirrors ncmpi_set_fill with NC_FILL).
func (d *Dataset) SetFill(on bool) { d.fill = on }

// EndDef leaves define mode collectively: verifies that every process built
// an identical header (the consistency guarantee of paper §4.2.1), computes
// the layout, relocates data if a Redef grew the header, and has the root
// write the header.
func (d *Dataset) EndDef() error {
	if err := d.CheckDefine(); err != nil {
		return err
	}
	if err := d.Hdr.Validate(); err != nil {
		return err
	}
	if err := d.Hdr.ComputeLayoutAligned(d.hAlign, d.vAlign); err != nil {
		return err
	}
	d.invalidateViews()
	if !d.comm.AgreeSame(d.Hdr.Encode()) {
		return nctype.ErrConsistency
	}
	d.InDefine = false
	if d.OldLayout != nil {
		if err := d.relocate(d.OldLayout); err != nil {
			return err
		}
		d.OldLayout = nil
	}
	if err := d.writeHeaderCollective(); err != nil {
		return err
	}
	// The root fills alone; agreeing its outcome keeps a failed fill from
	// leaving the other ranks behind.
	var err error
	if d.fill {
		err = d.fillVars()
	}
	return d.comm.AgreeError(err)
}

// Redef collectively re-enters define mode, first agreeing the record
// count so every rank snapshots the same layout.
func (d *Dataset) Redef() error {
	if err := d.CheckRedef(); err != nil {
		return err
	}
	if err := d.syncNumRecs(); err != nil {
		return err
	}
	return d.Schema.Redef()
}

// CommitHeader implements cdf.HeaderCommitter: a data-mode header change
// is committed collectively.
func (d *Dataset) CommitHeader() error { return d.writeHeaderCollective() }

// writeHeaderCollective has the root commit the header image; the outcome
// is agreed so every rank returns the same error and nobody runs ahead
// against a header that never landed.
func (d *Dataset) writeHeaderCollective() error {
	var werr error
	if d.comm.Rank() == 0 {
		werr = d.commitHeader()
	}
	return d.comm.AgreeError(werr)
}

// commitHeader publishes the current header crash-consistently
// (write-new / validate / publish):
//
//  1. journal the new image past EOF (a torn journal has no valid trailer
//     and is ignored on recovery);
//  2. invalidate the in-place magic;
//  3. write the new header body;
//  4. publish the magic last.
//
// A crash at any injected byte leaves either the old header intact or an
// invalid in-place header plus a complete journal holding the new one —
// Open and ncvalidate recover from the journal, so the file always
// classifies as old or new, never a torn hybrid.
func (d *Dataset) commitHeader() error {
	sc := d.sp.Begin(span.HeaderCommit)
	defer sc.End()
	blob := d.Hdr.Encode()
	sc.SetBytes(int64(len(blob)))
	size, err := d.f.Size()
	if err != nil {
		return err
	}
	// The journal goes past everything the file holds or declares: past the
	// current size AND past the declared data end, so it never sits inside a
	// region that an unwritten variable would later read as zero-fill.
	jOff := size
	if end := d.Hdr.FileSize(); jOff < end {
		jOff = end
	}
	if end := int64(len(blob)); jOff < end {
		jOff = end
	}
	journal := cdf.EncodeJournal(blob)
	if err := d.f.WriteRaw(journal, jOff); err != nil {
		return err
	}
	if err := d.f.WriteRaw([]byte{0, 0, 0, 0}, 0); err != nil {
		return err
	}
	if err := d.f.WriteRaw(blob[4:], 4); err != nil {
		return err
	}
	if err := d.f.WriteRaw(blob[:4], 0); err != nil {
		return err
	}
	// Publish complete: erase the journal so its bytes cannot masquerade as
	// record data once the record section grows over this region. A crash
	// during the erase is harmless — the new header is already live.
	if err := d.f.WriteRaw(make([]byte, len(journal)), jOff); err != nil {
		return err
	}
	d.st.Add(iostat.NCHeaderCommits, 1)
	d.st.Add(iostat.NCHeaderWriteBytes, int64(len(blob)))
	d.persistedNumRecs = d.Hdr.NumRecs
	return nil
}

// relocate moves data after a header-growing Redef. Non-overlapping moves
// are divided among the processes ("moving the existing data to the
// extended area is performed in parallel", paper §4.3); overlapping moves
// fall back to the root walking back to front. The ranks agree on the
// outcome, so a failed move is one error everywhere.
func (d *Dataset) relocate(old *cdf.Header) error {
	moves := d.RelocationMoves(old)
	overlapping := false
	for _, m := range moves {
		if m.From != m.To && m.To < m.From+m.N {
			overlapping = true
			break
		}
	}
	buf := make([]byte, 1<<20)
	doMove := func(m cdf.Move) error {
		remaining := m.N
		for remaining > 0 {
			k := remaining
			if k > int64(len(buf)) {
				k = int64(len(buf))
			}
			srcOff := m.From + remaining - k
			dstOff := m.To + remaining - k
			if err := d.f.ReadRaw(buf[:k], srcOff); err != nil {
				return err
			}
			if err := d.f.WriteRaw(buf[:k], dstOff); err != nil {
				return err
			}
			remaining -= k
		}
		return nil
	}
	var err error
	for i, m := range moves {
		if m.From == m.To || m.N == 0 {
			continue
		}
		// Overlapping moves: order matters, the root performs them all
		// back to front. Independent moves: round-robin over ranks.
		owner := 0
		if !overlapping {
			owner = i % d.comm.Size()
		}
		if owner == d.comm.Rank() {
			if err = doMove(m); err != nil {
				break
			}
		}
	}
	return d.comm.AgreeError(err)
}

// fillVars prefills all variables with fill values (root-driven; PnetCDF
// itself partitions the fill across ranks, which the data plane here also
// supports but the simpler root fill keeps EndDef deterministic).
func (d *Dataset) fillVars() error {
	if d.comm.Rank() != 0 {
		return nil
	}
	for i := range d.Hdr.Vars {
		v := &d.Hdr.Vars[i]
		if d.Hdr.IsRecordVar(v) {
			continue
		}
		n := v.VSize
		const chunk = 1 << 20
		fill := cdf.FillBytes(v, chunk/int64(v.Type.Size()))
		off := v.Begin
		for n > 0 {
			k := n
			if k > int64(len(fill)) {
				k = int64(len(fill))
			}
			if err := d.f.WriteRaw(fill[:k], off); err != nil {
				return err
			}
			off += k
			n -= k
		}
	}
	return nil
}

// BeginIndepData enters independent data mode (ncmpi_begin_indep_data).
func (d *Dataset) BeginIndepData() error {
	if err := d.CheckData(); err != nil {
		return err
	}
	if d.indep {
		return nctype.ErrIndepMode
	}
	d.comm.Barrier()
	d.indep = true
	return nil
}

// EndIndepData returns to collective data mode, reconciling any record
// growth performed independently.
func (d *Dataset) EndIndepData() error {
	if err := d.CheckData(); err != nil {
		return err
	}
	if !d.indep {
		return nctype.ErrCollMode
	}
	d.indep = false
	return d.syncNumRecs()
}

// syncNumRecs agrees on NumRecs across ranks (max) and persists it.
func (d *Dataset) syncNumRecs() error {
	agreed := d.comm.AllreduceI64([]int64{d.Hdr.NumRecs}, mpi.OpMax)[0]
	d.Hdr.NumRecs = agreed
	d.numrecsDirty = false
	d.st.Add(iostat.NCNumRecsSyncs, 1)
	return d.writeNumRecs()
}

// writeNumRecs has the root rewrite just the numrecs field, and the ranks
// agree on the outcome. The on-disk value is updated monotonically: the
// root skips the write when the agreed count has not grown past what is
// already persisted, so a crash can tear at most a strictly-growing update
// — and a torn (over-large) count is clamped by readers against the file
// size on journal recovery.
func (d *Dataset) writeNumRecs() error {
	var werr error
	if !d.ReadOnly && d.comm.Rank() == 0 && d.Hdr.NumRecs > d.persistedNumRecs {
		full := d.Hdr.Encode()
		// numrecs sits right after the 4-byte magic; 4 or 8 bytes by version.
		n := 8
		if d.Hdr.Version != 5 {
			n = 4
		}
		werr = d.f.WriteRaw(full[4:4+n], 4)
		if werr == nil {
			d.persistedNumRecs = d.Hdr.NumRecs
		}
		d.st.Add(iostat.NCHeaderWriteBytes, int64(n))
	}
	return d.comm.AgreeError(werr)
}

// Sync flushes everything collectively (ncmpi_sync).
func (d *Dataset) Sync() error {
	if err := d.CheckData(); err != nil {
		return err
	}
	if err := d.syncNumRecs(); err != nil {
		return err
	}
	return d.f.Sync()
}

// Close collectively closes the dataset (ncmpi_close). All teardown steps
// run even when an earlier one fails — a flush error is joined with, not
// masked by, a later successful close (and vice versa) — and the handle is
// marked closed regardless, so a second Close is an idempotent no-op
// rather than a second flush attempt.
func (d *Dataset) Close() error {
	if d.Closed {
		return nil
	}
	if len(d.pending) > 0 {
		return errors.New("pnetcdf: nonblocking requests pending at close; call WaitAll")
	}
	var errs []error
	if d.InDefine {
		errs = append(errs, d.EndDef())
	}
	if !d.ReadOnly {
		errs = append(errs, d.syncNumRecs())
	}
	errs = append(errs, d.f.Close())
	d.Closed = true
	return errors.Join(errs...)
}
