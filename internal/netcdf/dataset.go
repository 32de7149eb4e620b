package netcdf

import (
	"errors"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/nctype"
)

// GlobalID is the variable ID standing for "the dataset itself" in attribute
// calls, like NC_GLOBAL.
const GlobalID = cdf.GlobalID

// FillMode selects whether defined variables are pre-filled with netCDF fill
// values.
type FillMode int

// Fill modes.
const (
	NoFill FillMode = iota // default, like PnetCDF
	Fill                   // pre-fill at EndDef and on record growth
)

// Dataset is an open netCDF dataset accessed through a single process. The
// embedded schema carries the define-mode and inquiry calls; a data-mode
// header change is committed through CommitHeader.
type Dataset struct {
	cdf.Schema
	store Store
	cache *pageCache
	fill  FillMode

	// hAlign reserves header space so later Redef calls can grow the header
	// without moving data (also a PnetCDF hint).
	hAlign int64

	// prevVars names the variables that existed before the current define
	// mode (they are not re-filled on EndDef).
	prevVars map[string]bool
}

// Option tunes dataset creation/opening.
type Option func(*Dataset)

// WithFill enables netCDF prefilling.
func WithFill() Option { return func(d *Dataset) { d.fill = Fill } }

// WithHeaderAlign reserves align bytes of header space.
func WithHeaderAlign(align int64) Option { return func(d *Dataset) { d.hAlign = align } }

// WithCache overrides the page cache geometry.
func WithCache(pageSize int64, pages int) Option {
	return func(d *Dataset) { d.cache = newPageCache(d.store, pageSize, pages) }
}

// Create makes a new empty dataset on the store, entering define mode.
// mode may include nctype.Bit64Offset (CDF-2) or nctype.Bit64Data (CDF-5).
func Create(store Store, mode int, opts ...Option) (*Dataset, error) {
	version := 1
	if mode&nctype.Bit64Offset != 0 {
		version = 2
	}
	if mode&nctype.Bit64Data != 0 {
		version = 5
	}
	if err := store.Truncate(0); err != nil {
		return nil, err
	}
	d := &Dataset{store: store, hAlign: 1}
	d.Schema = cdf.NewSchema(&cdf.Header{Version: version}, true, false, d)
	for _, o := range opts {
		o(d)
	}
	if d.cache == nil {
		d.cache = newPageCache(store, 32<<10, 128)
	}
	return d, nil
}

// Open reads an existing dataset's header from the store. mode is
// nctype.NoWrite or nctype.Write.
func Open(store Store, mode int, opts ...Option) (*Dataset, error) {
	size, err := store.Size()
	if err != nil {
		return nil, err
	}
	// Read a generous prefix, growing if the header is larger. When the
	// in-place header is torn (a crash during a header commit), fall back
	// to the commit journal at the file's tail.
	probe := int64(64 << 10)
	recovered := false
	var hdr *cdf.Header
	for {
		if probe > size {
			probe = size
		}
		buf := make([]byte, probe)
		if err := readFull(store, buf, 0); err != nil {
			return nil, err
		}
		hdr, err = cdf.Decode(buf)
		if err == nil {
			break
		}
		if probe >= size {
			if img := recoverStoreJournal(store, size); img != nil {
				if h2, derr := cdf.Decode(img); derr == nil {
					hdr, recovered = h2, true
					break
				}
			}
			return nil, err
		}
		probe *= 4
	}
	if recovered {
		// The journaled (new) header may declare records lost with the
		// crash; clamp to what the file actually holds.
		if max := hdr.MaxRecsForSize(size); hdr.NumRecs > max {
			hdr.NumRecs = max
		}
	}
	d := &Dataset{store: store, hAlign: 1}
	d.Schema = cdf.NewSchema(hdr, false, mode&nctype.Write == 0, d)
	for _, o := range opts {
		o(d)
	}
	if d.cache == nil {
		d.cache = newPageCache(store, 32<<10, 128)
	}
	if recovered && !d.ReadOnly {
		// Repair the torn in-place header from the journaled image.
		if err := d.writeHeader(); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// recoverStoreJournal reads and verifies the commit journal terminating
// the store, returning the journaled header image or nil.
func recoverStoreJournal(store Store, size int64) []byte {
	if size < cdf.JournalTrailerSize {
		return nil
	}
	tr := make([]byte, cdf.JournalTrailerSize)
	if err := readFull(store, tr, size-cdf.JournalTrailerSize); err != nil {
		return nil
	}
	n, crc, ok := cdf.ParseJournalTrailer(tr)
	if !ok || n > size-cdf.JournalTrailerSize {
		return nil
	}
	img := make([]byte, n)
	if err := readFull(store, img, size-cdf.JournalTrailerSize-n); err != nil {
		return nil
	}
	if !cdf.VerifyJournalImage(img, crc) {
		return nil
	}
	return img
}

// EndDef leaves define mode: computes the file layout, writes the header,
// and (in Fill mode) pre-fills variables.
func (d *Dataset) EndDef() error {
	if err := d.CheckDefine(); err != nil {
		return err
	}
	if err := d.Hdr.Validate(); err != nil {
		return err
	}
	if err := d.Hdr.ComputeLayout(d.hAlign); err != nil {
		return err
	}
	d.InDefine = false
	if d.OldLayout != nil {
		if err := d.relocate(d.OldLayout); err != nil {
			return err
		}
		d.OldLayout = nil
	}
	if err := d.writeHeader(); err != nil {
		return err
	}
	if d.fill == Fill {
		if err := d.fillFixedVars(); err != nil {
			return err
		}
	}
	d.prevVars = nil
	return nil
}

// relocate moves existing variable data from its pre-Redef offsets to the
// new layout, highest destination first, each move copied back to front.
func (d *Dataset) relocate(old *cdf.Header) error {
	buf := make([]byte, 1<<20)
	for _, m := range d.RelocationMoves(old) {
		if m.From == m.To || m.N == 0 {
			continue
		}
		remaining := m.N
		for remaining > 0 {
			k := min64(remaining, int64(len(buf)))
			srcOff := m.From + remaining - k
			dstOff := m.To + remaining - k
			if err := d.cache.ReadAt(buf[:k], srcOff); err != nil {
				return err
			}
			if err := d.cache.WriteAt(buf[:k], dstOff); err != nil {
				return err
			}
			remaining -= k
		}
	}
	return nil
}

// Redef re-enters define mode. If subsequent definitions grow the header
// past its reserved space, EndDef moves the data (an expensive operation the
// paper calls out as a netCDF limitation).
func (d *Dataset) Redef() error {
	if err := d.Schema.Redef(); err != nil {
		return err
	}
	// Capture the existing variable set so fill mode only fills new
	// variables.
	d.prevVars = map[string]bool{}
	for i := range d.Hdr.Vars {
		d.prevVars[d.Hdr.Vars[i].Name] = true
	}
	return nil
}

// CommitHeader implements cdf.HeaderCommitter.
func (d *Dataset) CommitHeader() error { return d.writeHeader() }

// writeHeader publishes the header crash-consistently: journal the new
// image past the declared data end, invalidate the in-place magic, write
// the body, publish the magic last, then erase the journal. The sequence
// bypasses the write-back cache — commit ordering through an LRU cache is
// undefined — and drops the cache's stale view of the touched ranges
// first. A crash at any byte leaves the old header intact or a journal to
// recover the new one from (see internal/cdf/commit.go).
func (d *Dataset) writeHeader() error {
	blob := d.Hdr.Encode()
	size, err := d.store.Size()
	if err != nil {
		return err
	}
	jOff := size
	if end := d.Hdr.FileSize(); jOff < end {
		jOff = end
	}
	if end := int64(len(blob)); jOff < end {
		jOff = end
	}
	journal := cdf.EncodeJournal(blob)
	if err := d.cache.discardRange(0, int64(len(blob))); err != nil {
		return err
	}
	if err := d.cache.discardRange(jOff, int64(len(journal))); err != nil {
		return err
	}
	if err := writeFull(d.store, journal, jOff); err != nil {
		return err
	}
	if err := writeFull(d.store, []byte{0, 0, 0, 0}, 0); err != nil {
		return err
	}
	if err := writeFull(d.store, blob[4:], 4); err != nil {
		return err
	}
	if err := writeFull(d.store, blob[:4], 0); err != nil {
		return err
	}
	// Publish complete: erase the journal so its bytes cannot masquerade as
	// record data once the record section grows over this region.
	return writeFull(d.store, make([]byte, len(journal)), jOff)
}

// Sync flushes buffered data and the current record count to the store.
func (d *Dataset) Sync() error {
	if d.Closed {
		return nctype.ErrClosed
	}
	if !d.ReadOnly && !d.InDefine {
		if err := d.writeHeader(); err != nil {
			return err
		}
	}
	if err := d.cache.Flush(); err != nil {
		return err
	}
	return d.store.Sync()
}

// Close synchronizes and closes the dataset. All teardown steps run even
// when an earlier one fails — a flush error is joined with, not masked by,
// a later successful close (and vice versa) — and the handle is marked
// closed regardless, so a second Close is an idempotent no-op rather than
// a second flush attempt.
func (d *Dataset) Close() error {
	if d.Closed {
		return nil
	}
	var errs []error
	if d.InDefine && !d.ReadOnly {
		errs = append(errs, d.EndDef())
	}
	errs = append(errs, d.Sync())
	d.Closed = true
	errs = append(errs, d.store.Close())
	return errors.Join(errs...)
}

// Abort closes without saving pending define-mode changes (buffered data
// is dropped, not flushed). Idempotent after Close or a prior Abort.
func (d *Dataset) Abort() error {
	if d.Closed {
		return nil
	}
	d.Closed = true
	return d.store.Close()
}
