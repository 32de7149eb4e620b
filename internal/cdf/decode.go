package cdf

import (
	"encoding/binary"
	"fmt"

	"pnetcdf/internal/nctype"
)

type headerReader struct {
	buf     []byte
	pos     int
	version int
}

var errTruncated = fmt.Errorf("%w: truncated header", nctype.ErrNotNC)

func (r *headerReader) need(n int) error {
	if r.pos+n > len(r.buf) {
		return errTruncated
	}
	return nil
}

func (r *headerReader) uint32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *headerReader) nonNeg() (int64, error) {
	if r.version == 5 {
		if err := r.need(8); err != nil {
			return 0, err
		}
		v := int64(binary.BigEndian.Uint64(r.buf[r.pos:]))
		r.pos += 8
		// A hostile CDF-5 count with the top bit set must be rejected
		// here: downstream it sizes allocations (make([]int, nd)) and
		// loop bounds, where a negative value panics or wraps.
		if v < 0 {
			return 0, fmt.Errorf("%w: negative count", nctype.ErrNotNC)
		}
		return v, nil
	}
	v, err := r.uint32()
	return int64(v), err
}

func (r *headerReader) offset() (int64, error) {
	if r.version == 1 {
		v, err := r.uint32()
		return int64(v), err
	}
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := int64(binary.BigEndian.Uint64(r.buf[r.pos:]))
	r.pos += 8
	return v, nil
}

func (r *headerReader) skipPad() error {
	for r.pos%4 != 0 {
		if err := r.need(1); err != nil {
			return err
		}
		r.pos++
	}
	return nil
}

func (r *headerReader) name() (string, error) {
	n, err := r.nonNeg()
	if err != nil {
		return "", err
	}
	if n < 0 || n > nctype.MaxNameLen {
		return "", fmt.Errorf("%w: name length %d", nctype.ErrNotNC, n)
	}
	if err := r.need(int(n)); err != nil {
		return "", err
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, r.skipPad()
}

func (r *headerReader) tagList(wantTag uint32) (int64, error) {
	tag, err := r.uint32()
	if err != nil {
		return 0, err
	}
	n, err := r.nonNeg()
	if err != nil {
		return 0, err
	}
	switch {
	case tag == nctype.TagAbsent && n == 0:
		return 0, nil
	case tag == wantTag:
		return n, nil
	}
	return 0, fmt.Errorf("%w: bad list tag %#x", nctype.ErrNotNC, tag)
}

func (r *headerReader) attrs() ([]Attr, error) {
	n, err := r.tagList(nctype.TagAttribute)
	if err != nil {
		return nil, err
	}
	if n > nctype.MaxAttrs {
		return nil, fmt.Errorf("%w: %d attributes", nctype.ErrNotNC, n)
	}
	attrs := make([]Attr, 0, n)
	for i := int64(0); i < n; i++ {
		var a Attr
		if a.Name, err = r.name(); err != nil {
			return nil, err
		}
		t, err := r.uint32()
		if err != nil {
			return nil, err
		}
		a.Type = nctype.Type(t)
		if a.Type.Size() == 0 {
			return nil, fmt.Errorf("%w: attribute type %d", nctype.ErrNotNC, t)
		}
		if a.Nelems, err = r.nonNeg(); err != nil {
			return nil, err
		}
		// Bound Nelems by the buffer before multiplying so the byte count
		// cannot overflow, and the copy below cannot over-allocate.
		if a.Nelems > int64(len(r.buf)) {
			return nil, errTruncated
		}
		nbytes := a.Nelems * int64(a.Type.Size())
		if nbytes < 0 || int64(r.pos)+nbytes > int64(len(r.buf)) {
			return nil, errTruncated
		}
		a.Values = append([]byte(nil), r.buf[r.pos:r.pos+int(nbytes)]...)
		r.pos += int(nbytes)
		if err := r.skipPad(); err != nil {
			return nil, err
		}
		attrs = append(attrs, a)
	}
	return attrs, nil
}

// Decode parses an on-disk header image. The buffer must contain at least
// the complete header; trailing bytes (data) are ignored.
func Decode(buf []byte) (*Header, error) {
	if len(buf) < 4 || buf[0] != 'C' || buf[1] != 'D' || buf[2] != 'F' {
		return nil, nctype.ErrNotNC
	}
	version := int(buf[3])
	if version != 1 && version != 2 && version != 5 {
		return nil, fmt.Errorf("%w: CDF-%d", nctype.ErrVersion, version)
	}
	r := &headerReader{buf: buf, pos: 4, version: version}
	h := &Header{Version: version}
	var err error
	if h.NumRecs, err = r.nonNeg(); err != nil {
		return nil, err
	}
	// dim_list
	ndims, err := r.tagList(nctype.TagDimension)
	if err != nil {
		return nil, err
	}
	if ndims > nctype.MaxDims {
		return nil, fmt.Errorf("%w: %d dimensions", nctype.ErrNotNC, ndims)
	}
	h.Dims = make([]Dim, 0, ndims)
	for i := int64(0); i < ndims; i++ {
		var d Dim
		if d.Name, err = r.name(); err != nil {
			return nil, err
		}
		if d.Len, err = r.nonNeg(); err != nil {
			return nil, err
		}
		h.Dims = append(h.Dims, d)
	}
	// gatt_list
	if h.GAttrs, err = r.attrs(); err != nil {
		return nil, err
	}
	// var_list
	nvars, err := r.tagList(nctype.TagVariable)
	if err != nil {
		return nil, err
	}
	if nvars > nctype.MaxVars {
		return nil, fmt.Errorf("%w: %d variables", nctype.ErrNotNC, nvars)
	}
	h.Vars = make([]Var, 0, nvars)
	for i := int64(0); i < nvars; i++ {
		var v Var
		if v.Name, err = r.name(); err != nil {
			return nil, err
		}
		nd, err := r.nonNeg()
		if err != nil {
			return nil, err
		}
		if nd > nctype.MaxDims {
			return nil, nctype.ErrMaxDims
		}
		v.DimIDs = make([]int, nd)
		for j := range v.DimIDs {
			id, err := r.nonNeg()
			if err != nil {
				return nil, err
			}
			if id < 0 || id >= int64(len(h.Dims)) {
				return nil, fmt.Errorf("%w: dimid %d", nctype.ErrNotNC, id)
			}
			v.DimIDs[j] = int(id)
		}
		if v.Attrs, err = r.attrs(); err != nil {
			return nil, err
		}
		t, err := r.uint32()
		if err != nil {
			return nil, err
		}
		v.Type = nctype.Type(t)
		if !v.Type.Valid(version) {
			return nil, fmt.Errorf("%w: variable type %d", nctype.ErrNotNC, t)
		}
		if v.VSize, err = r.nonNeg(); err != nil {
			return nil, err
		}
		if v.Begin, err = r.offset(); err != nil {
			return nil, err
		}
		if v.Begin < 0 {
			return nil, fmt.Errorf("%w: variable %q begin %d", nctype.ErrNotNC, v.Name, v.Begin)
		}
		h.Vars = append(h.Vars, v)
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}
	return h, nil
}

// DecodedHeaderSize reports how many bytes of buf the header occupies; it is
// the position reached by a successful Decode. Returns an error for a
// malformed header.
func DecodedHeaderSize(buf []byte) (int64, error) {
	h, err := Decode(buf)
	if err != nil {
		return 0, err
	}
	return h.EncodedSize(), nil
}
