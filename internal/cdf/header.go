// Package cdf implements the netCDF classic file format (CDF-1, CDF-2 and
// CDF-5): the binary header holding dimensions, global attributes and
// variable metadata, the layout rules placing fixed-size arrays contiguously
// and record variables interleaved by record, and the big-endian external
// data encoding.
//
// The package is encoding/decoding and layout arithmetic, plus Schema, the
// define-mode and inquiry calls over an in-memory header that both
// libraries embed; it performs no I/O itself (a data-mode header change is
// committed through the embedding library's HeaderCommitter). Both the
// serial library (internal/netcdf) and the parallel library
// (internal/core) share it, which is what guarantees that files written by
// one are readable by the other — the property the paper relies on when it
// keeps "the original netCDF file format (version 3)".
package cdf

import (
	"fmt"
	"sort"

	"pnetcdf/internal/nctype"
)

// Dim is a named dimension. Len == 0 marks the unlimited (record) dimension.
type Dim struct {
	Name string
	Len  int64
}

// IsUnlimited reports whether d is the record dimension.
func (d Dim) IsUnlimited() bool { return d.Len == nctype.UnlimitedDim }

// Attr is an attribute: a name plus a small typed vector. Values holds the
// external (big-endian) representation; Nelems is the number of values.
type Attr struct {
	Name   string
	Type   nctype.Type
	Nelems int64
	Values []byte
}

// Var describes one variable: its shape (dimension IDs into the header's
// dimension list), attributes, external type, and file layout (Begin offset
// and VSize, the per-record or whole-array external size).
type Var struct {
	Name   string
	DimIDs []int
	Attrs  []Attr
	Type   nctype.Type

	// VSize is the external size in bytes of the variable's fixed part: the
	// whole array for fixed variables, one record for record variables.
	// It includes the classic format's padding to a 4-byte boundary except
	// in the single-record-variable special case.
	VSize int64
	// Begin is the file offset of the variable's first byte.
	Begin int64
}

// Header is the in-memory model of a classic-format file header.
type Header struct {
	// Version is 1 (CDF-1), 2 (CDF-2) or 5 (CDF-5).
	Version int
	// NumRecs is the current number of records along the unlimited dimension.
	NumRecs int64
	Dims    []Dim
	GAttrs  []Attr
	Vars    []Var

	// dimIndex and varIndex map each dimension and variable name to the ID
	// of its first holder, so FindDim and FindVar are O(1) (Li/Latham,
	// "Parallel Data Object Creation"). Validate fills them in its
	// uniqueness pass; after that, names change only through Schema's
	// DefDim, DefVar, RenameDim and RenameVar, which update them in place.
	// An index whose size differs from its list's (a Clone, a header built
	// as a literal, a failed Validate) is rebuilt on the next lookup; that
	// lookup writes to the header, so goroutines sharing one header look
	// names up concurrently only once it was Decoded or Validated.
	dimIndex, varIndex map[string]int
}

// UnlimitedDimID returns the index of the record dimension, or -1.
func (h *Header) UnlimitedDimID() int {
	for i, d := range h.Dims {
		if d.IsUnlimited() {
			return i
		}
	}
	return -1
}

// IsRecordVar reports whether variable v uses the unlimited dimension.
// Per the classic format, the unlimited dimension may only appear as the
// first (most significant) dimension.
func (h *Header) IsRecordVar(v *Var) bool {
	return len(v.DimIDs) > 0 && h.Dims[v.DimIDs[0]].IsUnlimited()
}

// VarShape returns the dimension lengths of v in defined order. The record
// dimension, if present, is reported with the current NumRecs.
func (h *Header) VarShape(v *Var) []int64 {
	shape := make([]int64, len(v.DimIDs))
	for i, id := range v.DimIDs {
		if h.Dims[id].IsUnlimited() {
			shape[i] = h.NumRecs
		} else {
			shape[i] = h.Dims[id].Len
		}
	}
	return shape
}

// FindDim returns the ID of the dimension with the given name, or -1.
func (h *Header) FindDim(name string) int {
	if id, ok := h.dimIDs()[name]; ok {
		return id
	}
	return -1
}

// FindVar returns the ID of the variable with the given name, or -1.
func (h *Header) FindVar(name string) int {
	if id, ok := h.varIDs()[name]; ok {
		return id
	}
	return -1
}

// dimIDs returns the dimension name index, rebuilt first if out of step.
func (h *Header) dimIDs() map[string]int {
	if h.dimIndex == nil || len(h.dimIndex) != len(h.Dims) {
		h.dimIndex = resetIndex(h.dimIndex, len(h.Dims))
		for i := range h.Dims {
			addName(h.dimIndex, h.Dims[i].Name, i)
		}
	}
	return h.dimIndex
}

// varIDs returns the variable name index, rebuilt first if out of step.
func (h *Header) varIDs() map[string]int {
	if h.varIndex == nil || len(h.varIndex) != len(h.Vars) {
		h.varIndex = resetIndex(h.varIndex, len(h.Vars))
		for i := range h.Vars {
			addName(h.varIndex, h.Vars[i].Name, i)
		}
	}
	return h.varIndex
}

// resetIndex returns idx emptied, or a new index sized for n names.
func resetIndex(idx map[string]int, n int) map[string]int {
	if idx == nil {
		return make(map[string]int, n)
	}
	clear(idx)
	return idx
}

// addName records id as the holder of name unless the name is already
// held, and reports whether it was free.
func addName(idx map[string]int, name string, id int) bool {
	if _, held := idx[name]; held {
		return false
	}
	idx[name] = id
	return true
}

// FindAttr returns the index of the named attribute in attrs, or -1.
func FindAttr(attrs []Attr, name string) int {
	for i := range attrs {
		if attrs[i].Name == name {
			return i
		}
	}
	return -1
}

// NumRecVars counts the record variables.
func (h *Header) NumRecVars() int {
	n := 0
	for i := range h.Vars {
		if h.IsRecordVar(&h.Vars[i]) {
			n++
		}
	}
	return n
}

// RecSize returns the external size of one full record: the sum of the
// per-record sizes of all record variables, honoring the classic format's
// single-record-variable special case (no inter-record padding).
func (h *Header) RecSize() int64 {
	var total int64
	for i := range h.Vars {
		if h.IsRecordVar(&h.Vars[i]) {
			total += h.Vars[i].VSize
		}
	}
	return total
}

// Clone returns a deep copy of the header. The parallel library keeps one
// clone per process and synchronizes them collectively. The copy's name
// indexes are built on its first lookup.
func (h *Header) Clone() *Header {
	c := &Header{Version: h.Version, NumRecs: h.NumRecs}
	c.Dims = append([]Dim(nil), h.Dims...)
	c.GAttrs = cloneAttrs(h.GAttrs)
	c.Vars = make([]Var, len(h.Vars))
	for i, v := range h.Vars {
		nv := v
		nv.DimIDs = append([]int(nil), v.DimIDs...)
		nv.Attrs = cloneAttrs(v.Attrs)
		c.Vars[i] = nv
	}
	return c
}

func cloneAttrs(as []Attr) []Attr {
	if as == nil {
		return nil
	}
	out := make([]Attr, len(as))
	for i, a := range as {
		na := a
		na.Values = append([]byte(nil), a.Values...)
		out[i] = na
	}
	return out
}

// Equal reports whether two headers describe identical datasets (same
// structure and same layout). Used by the parallel library's define-mode
// consistency check.
func (h *Header) Equal(o *Header) bool {
	if h.Version != o.Version || h.NumRecs != o.NumRecs ||
		len(h.Dims) != len(o.Dims) || len(h.GAttrs) != len(o.GAttrs) ||
		len(h.Vars) != len(o.Vars) {
		return false
	}
	for i := range h.Dims {
		if h.Dims[i] != o.Dims[i] {
			return false
		}
	}
	if !attrsEqual(h.GAttrs, o.GAttrs) {
		return false
	}
	for i := range h.Vars {
		a, b := &h.Vars[i], &o.Vars[i]
		if a.Name != b.Name || a.Type != b.Type || a.VSize != b.VSize ||
			a.Begin != b.Begin || len(a.DimIDs) != len(b.DimIDs) {
			return false
		}
		for j := range a.DimIDs {
			if a.DimIDs[j] != b.DimIDs[j] {
				return false
			}
		}
		if !attrsEqual(a.Attrs, b.Attrs) {
			return false
		}
	}
	return true
}

func attrsEqual(a, b []Attr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Type != b[i].Type ||
			a[i].Nelems != b[i].Nelems || string(a[i].Values) != string(b[i].Values) {
			return false
		}
	}
	return true
}

// Validate checks structural invariants: name validity and uniqueness, at
// most one unlimited dimension used only in the leading position, valid
// dimension IDs, and valid types for the format version. Its uniqueness
// pass rebuilds the header's name indexes.
func (h *Header) Validate() error {
	if h.Version != 1 && h.Version != 2 && h.Version != 5 {
		return fmt.Errorf("%w: version %d", nctype.ErrVersion, h.Version)
	}
	h.dimIndex = resetIndex(h.dimIndex, len(h.Dims))
	unlimited := 0
	for i, d := range h.Dims {
		if err := CheckName(d.Name); err != nil {
			return err
		}
		if !addName(h.dimIndex, d.Name, i) {
			return fmt.Errorf("%w: dimension %q", nctype.ErrNameInUse, d.Name)
		}
		if d.Len < 0 {
			return fmt.Errorf("%w: dimension %q length %d", nctype.ErrBadDim, d.Name, d.Len)
		}
		if d.IsUnlimited() {
			unlimited++
		}
	}
	if unlimited > 1 {
		return nctype.ErrMultiUnlimited
	}
	if err := validateAttrs(h.GAttrs, h.Version); err != nil {
		return err
	}
	h.varIndex = resetIndex(h.varIndex, len(h.Vars))
	for i := range h.Vars {
		v := &h.Vars[i]
		if err := CheckName(v.Name); err != nil {
			return err
		}
		if !addName(h.varIndex, v.Name, i) {
			return fmt.Errorf("%w: variable %q", nctype.ErrNameInUse, v.Name)
		}
		if !v.Type.Valid(h.Version) {
			return fmt.Errorf("%w: variable %q type %v", nctype.ErrBadType, v.Name, v.Type)
		}
		if len(v.DimIDs) > nctype.MaxDims {
			return nctype.ErrMaxDims
		}
		for pos, id := range v.DimIDs {
			if id < 0 || id >= len(h.Dims) {
				return fmt.Errorf("%w: variable %q dimid %d", nctype.ErrBadDim, v.Name, id)
			}
			if h.Dims[id].IsUnlimited() && pos != 0 {
				return fmt.Errorf("%w: variable %q", nctype.ErrUnlimPos, v.Name)
			}
		}
		if err := validateAttrs(v.Attrs, h.Version); err != nil {
			return err
		}
	}
	return nil
}

func validateAttrs(attrs []Attr, version int) error {
	seen := map[string]bool{}
	for _, a := range attrs {
		if err := CheckName(a.Name); err != nil {
			return err
		}
		if seen[a.Name] {
			return fmt.Errorf("%w: attribute %q", nctype.ErrNameInUse, a.Name)
		}
		seen[a.Name] = true
		if !a.Type.Valid(version) {
			return fmt.Errorf("%w: attribute %q type %v", nctype.ErrBadType, a.Name, a.Type)
		}
		if int64(len(a.Values)) != a.Nelems*int64(a.Type.Size()) {
			return fmt.Errorf("%w: attribute %q value size", nctype.ErrInvalidArg, a.Name)
		}
	}
	return nil
}

// CheckName validates a netCDF object name: nonempty, at most MaxNameLen
// bytes, beginning with a letter, digit or underscore, and containing no
// control characters, slashes, or trailing spaces.
func CheckName(name string) error {
	if name == "" || len(name) > nctype.MaxNameLen {
		return fmt.Errorf("%w: %q", nctype.ErrBadName, name)
	}
	c := name[0]
	if !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9') {
		return fmt.Errorf("%w: %q", nctype.ErrBadName, name)
	}
	for i := 0; i < len(name); i++ {
		if name[i] < 0x20 || name[i] == 0x7F || name[i] == '/' {
			return fmt.Errorf("%w: %q", nctype.ErrBadName, name)
		}
	}
	if name[len(name)-1] == ' ' {
		return fmt.Errorf("%w: %q", nctype.ErrBadName, name)
	}
	return nil
}

// SortedVarIDsByBegin returns variable IDs ordered by file offset; handy for
// layout inspection and for ncdump's data section.
func (h *Header) SortedVarIDsByBegin() []int {
	ids := make([]int, len(h.Vars))
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return h.Vars[ids[a]].Begin < h.Vars[ids[b]].Begin })
	return ids
}
