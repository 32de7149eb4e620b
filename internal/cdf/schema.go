package cdf

import (
	"fmt"
	"sort"

	"pnetcdf/internal/nctype"
)

// GlobalID addresses the dataset itself in attribute calls (NC_GLOBAL).
const GlobalID = -1

// HeaderCommitter publishes the in-memory header after a data-mode change
// to it (an attribute overwrite or a rename). It is the one thing a library
// supplies to its Schema: the parallel library commits collectively from
// the root, the serial one writes through its store.
type HeaderCommitter interface {
	CommitHeader() error
}

// Schema is the define-mode and inquiry half of a netCDF dataset, shared
// by the serial and parallel libraries. The paper keeps these calls
// identical in both (§4.1): each works on an in-memory copy of the header,
// and only the header commit differs (§4.2.1). A library embeds a Schema,
// supplies its HeaderCommitter, and keeps EndDef, open/create, fill and
// the data path to itself.
type Schema struct {
	// Hdr is the in-memory header.
	Hdr *Header
	// InDefine, ReadOnly and Closed are the dataset's mode.
	InDefine, ReadOnly, Closed bool
	// OldLayout snapshots the header at Redef so the library's EndDef can
	// relocate data; nil when no Redef is pending.
	OldLayout *Header

	commit HeaderCommitter
}

// NewSchema returns a schema over h; c commits data-mode header changes.
func NewSchema(h *Header, inDefine, readOnly bool, c HeaderCommitter) Schema {
	return Schema{Hdr: h, InDefine: inDefine, ReadOnly: readOnly, commit: c}
}

// Header exposes the in-memory header (read-only use: inquiry, dumps).
func (s *Schema) Header() *Header { return s.Hdr }

// CheckDefine reports why a define-mode call is not allowed now, or nil.
func (s *Schema) CheckDefine() error {
	switch {
	case s.Closed:
		return nctype.ErrClosed
	case s.ReadOnly:
		return nctype.ErrPerm
	case !s.InDefine:
		return nctype.ErrNotInDefine
	}
	return nil
}

// CheckData reports why a data-mode call is not allowed now, or nil.
func (s *Schema) CheckData() error {
	switch {
	case s.Closed:
		return nctype.ErrClosed
	case s.InDefine:
		return nctype.ErrInDefine
	}
	return nil
}

// checkWrite reports why a header change is not allowed in either mode.
func (s *Schema) checkWrite() error {
	switch {
	case s.Closed:
		return nctype.ErrClosed
	case s.ReadOnly:
		return nctype.ErrPerm
	}
	return nil
}

// CheckRedef reports why Redef is not allowed now, or nil.
func (s *Schema) CheckRedef() error {
	if err := s.checkWrite(); err != nil {
		return err
	}
	if s.InDefine {
		return nctype.ErrInDefine
	}
	return nil
}

// Redef re-enters define mode, snapshotting the current layout in
// OldLayout. A library wraps it with its own bookkeeping.
func (s *Schema) Redef() error {
	if err := s.CheckRedef(); err != nil {
		return err
	}
	s.OldLayout = s.Hdr.Clone()
	s.InDefine = true
	return nil
}

// --- Define mode: in-memory edits of the header copy ---

// DefDim defines a dimension; size 0 declares the unlimited dimension.
func (s *Schema) DefDim(name string, size int64) (int, error) {
	if err := s.CheckDefine(); err != nil {
		return -1, err
	}
	if err := CheckName(name); err != nil {
		return -1, err
	}
	if s.Hdr.FindDim(name) >= 0 {
		return -1, fmt.Errorf("%w: dimension %q", nctype.ErrNameInUse, name)
	}
	if size < 0 {
		return -1, nctype.ErrBadDim
	}
	if len(s.Hdr.Dims) >= nctype.MaxDims {
		return -1, nctype.ErrMaxDims
	}
	if size == 0 && s.Hdr.UnlimitedDimID() >= 0 {
		return -1, nctype.ErrMultiUnlimited
	}
	s.Hdr.Dims = append(s.Hdr.Dims, Dim{Name: name, Len: size})
	return len(s.Hdr.Dims) - 1, nil
}

// DefVar defines a variable over previously defined dimensions.
func (s *Schema) DefVar(name string, t nctype.Type, dimids []int) (int, error) {
	if err := s.CheckDefine(); err != nil {
		return -1, err
	}
	if err := CheckName(name); err != nil {
		return -1, err
	}
	if s.Hdr.FindVar(name) >= 0 {
		return -1, fmt.Errorf("%w: variable %q", nctype.ErrNameInUse, name)
	}
	if !t.Valid(s.Hdr.Version) {
		return -1, nctype.ErrBadType
	}
	if len(dimids) > nctype.MaxDims {
		return -1, nctype.ErrMaxDims
	}
	if len(s.Hdr.Vars) >= nctype.MaxVars {
		return -1, nctype.ErrMaxVars
	}
	for pos, id := range dimids {
		if id < 0 || id >= len(s.Hdr.Dims) {
			return -1, nctype.ErrBadDim
		}
		if s.Hdr.Dims[id].IsUnlimited() && pos != 0 {
			return -1, nctype.ErrUnlimPos
		}
	}
	s.Hdr.Vars = append(s.Hdr.Vars, Var{
		Name: name, Type: t, DimIDs: append([]int(nil), dimids...),
	})
	return len(s.Hdr.Vars) - 1, nil
}

// attrsOf returns the attribute list for varid (GlobalID for global
// attributes).
func (s *Schema) attrsOf(varid int) (*[]Attr, error) {
	if varid == GlobalID {
		return &s.Hdr.GAttrs, nil
	}
	if varid < 0 || varid >= len(s.Hdr.Vars) {
		return nil, nctype.ErrNotVar
	}
	return &s.Hdr.Vars[varid].Attrs, nil
}

// commitIfData commits a header change made in data mode.
func (s *Schema) commitIfData() error {
	if s.InDefine {
		return nil
	}
	return s.commit.CommitHeader()
}

// PutAttr sets an attribute on a variable (or GlobalID). In data mode only
// same-or-smaller overwrites are allowed (classic rule), and the header is
// committed.
func (s *Schema) PutAttr(varid int, name string, t nctype.Type, value any) error {
	if err := s.checkWrite(); err != nil {
		return err
	}
	attrs, err := s.attrsOf(varid)
	if err != nil {
		return err
	}
	if err := CheckName(name); err != nil {
		return err
	}
	if !t.Valid(s.Hdr.Version) {
		return nctype.ErrBadType
	}
	a, err := MakeAttr(name, t, value)
	if err != nil {
		return err
	}
	if i := FindAttr(*attrs, name); i >= 0 {
		if !s.InDefine && len(a.Values) > len((*attrs)[i].Values) {
			return nctype.ErrNotInDefine
		}
		(*attrs)[i] = a
		return s.commitIfData()
	}
	if !s.InDefine {
		return nctype.ErrNotInDefine
	}
	if len(*attrs) >= nctype.MaxAttrs {
		return nctype.ErrMaxAtts
	}
	*attrs = append(*attrs, a)
	return nil
}

// GetAttr returns an attribute's type and decoded value ([]byte for Char,
// typed slices otherwise). Purely local — no file access or
// synchronization, one of PnetCDF's advantages over HDF5's dispersed
// metadata (paper §4.3).
func (s *Schema) GetAttr(varid int, name string) (nctype.Type, any, error) {
	if s.Closed {
		return 0, nil, nctype.ErrClosed
	}
	attrs, err := s.attrsOf(varid)
	if err != nil {
		return 0, nil, err
	}
	i := FindAttr(*attrs, name)
	if i < 0 {
		return 0, nil, fmt.Errorf("%w: %q", nctype.ErrNotAtt, name)
	}
	a := (*attrs)[i]
	v, err := DecodeAttrValue(a)
	return a.Type, v, err
}

// DelAttr removes an attribute (define mode only).
func (s *Schema) DelAttr(varid int, name string) error {
	if err := s.CheckDefine(); err != nil {
		return err
	}
	attrs, err := s.attrsOf(varid)
	if err != nil {
		return err
	}
	i := FindAttr(*attrs, name)
	if i < 0 {
		return fmt.Errorf("%w: %q", nctype.ErrNotAtt, name)
	}
	*attrs = append((*attrs)[:i], (*attrs)[i+1:]...)
	return nil
}

// AttrNames lists an object's attribute names in definition order.
func (s *Schema) AttrNames(varid int) ([]string, error) {
	attrs, err := s.attrsOf(varid)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(*attrs))
	for i, a := range *attrs {
		names[i] = a.Name
	}
	return names, nil
}

// RenameDim renames a dimension (nc_rename_dim). In data mode the new name
// may not grow the header, which is then committed.
func (s *Schema) RenameDim(dimid int, newName string) error {
	if err := s.checkWrite(); err != nil {
		return err
	}
	if dimid < 0 || dimid >= len(s.Hdr.Dims) {
		return nctype.ErrNotDim
	}
	if err := CheckName(newName); err != nil {
		return err
	}
	if err := s.checkRename(s.Hdr.FindDim(newName), dimid, "dimension", s.Hdr.Dims[dimid].Name, newName); err != nil {
		return err
	}
	s.Hdr.Dims[dimid].Name = newName
	return s.commitIfData()
}

// RenameVar renames a variable under the same rules as RenameDim.
func (s *Schema) RenameVar(varid int, newName string) error {
	if err := s.checkWrite(); err != nil {
		return err
	}
	v, err := s.VarByID(varid)
	if err != nil {
		return err
	}
	if err := CheckName(newName); err != nil {
		return err
	}
	if err := s.checkRename(s.Hdr.FindVar(newName), varid, "variable", v.Name, newName); err != nil {
		return err
	}
	v.Name = newName
	return s.commitIfData()
}

// RenameAttr renames an attribute of varid (or GlobalID).
func (s *Schema) RenameAttr(varid int, oldName, newName string) error {
	if err := s.checkWrite(); err != nil {
		return err
	}
	attrs, err := s.attrsOf(varid)
	if err != nil {
		return err
	}
	if err := CheckName(newName); err != nil {
		return err
	}
	i := FindAttr(*attrs, oldName)
	if i < 0 {
		return fmt.Errorf("%w: %q", nctype.ErrNotAtt, oldName)
	}
	if err := s.checkRename(FindAttr(*attrs, newName), i, "attribute", oldName, newName); err != nil {
		return err
	}
	(*attrs)[i].Name = newName
	return s.commitIfData()
}

// checkRename checks that renaming object id (kind) from oldName to the
// valid newName is allowed: no other object holds newName (found is the ID
// that does, or -1), and in data mode the name does not grow.
func (s *Schema) checkRename(found, id int, kind, oldName, newName string) error {
	if found >= 0 && found != id {
		return fmt.Errorf("%w: %s %q", nctype.ErrNameInUse, kind, newName)
	}
	if !s.InDefine && len(newName) > len(oldName) {
		return nctype.ErrNotInDefine
	}
	return nil
}

// --- Inquiry: purely local, no synchronization (paper §4.3) ---

// NumDims returns the number of dimensions.
func (s *Schema) NumDims() int { return len(s.Hdr.Dims) }

// NumVars returns the number of variables.
func (s *Schema) NumVars() int { return len(s.Hdr.Vars) }

// NumRecs returns the record count of the local header copy (the parallel
// library keeps it agreed across processes at collective calls and Sync).
func (s *Schema) NumRecs() int64 { return s.Hdr.NumRecs }

// UnlimitedDimID returns the record dimension's ID, or -1.
func (s *Schema) UnlimitedDimID() int { return s.Hdr.UnlimitedDimID() }

// DimID looks a dimension up by name (-1 if absent).
func (s *Schema) DimID(name string) int { return s.Hdr.FindDim(name) }

// VarID looks a variable up by name (-1 if absent).
func (s *Schema) VarID(name string) int { return s.Hdr.FindVar(name) }

// InqDim returns a dimension's name and length.
func (s *Schema) InqDim(dimid int) (string, int64, error) {
	if dimid < 0 || dimid >= len(s.Hdr.Dims) {
		return "", 0, nctype.ErrNotDim
	}
	dim := s.Hdr.Dims[dimid]
	return dim.Name, dim.Len, nil
}

// InqVar returns a variable's name, type and dimension IDs.
func (s *Schema) InqVar(varid int) (string, nctype.Type, []int, error) {
	v, err := s.VarByID(varid)
	if err != nil {
		return "", 0, nil, err
	}
	return v.Name, v.Type, append([]int(nil), v.DimIDs...), nil
}

// VarShape returns a variable's current dimension lengths (records
// expanded to NumRecs).
func (s *Schema) VarShape(varid int) ([]int64, error) {
	v, err := s.VarByID(varid)
	if err != nil {
		return nil, err
	}
	return s.Hdr.VarShape(v), nil
}

// VarByID returns variable varid of the header.
func (s *Schema) VarByID(varid int) (*Var, error) {
	if varid < 0 || varid >= len(s.Hdr.Vars) {
		return nil, nctype.ErrNotVar
	}
	return &s.Hdr.Vars[varid], nil
}

// WholeVar returns the start and count covering all of variable varid.
// For a record variable with no records yet, the record count is inferred
// from the length of data.
func (s *Schema) WholeVar(varid int, data any) (start, count []int64, err error) {
	v, err := s.VarByID(varid)
	if err != nil {
		return nil, nil, err
	}
	count = s.Hdr.VarShape(v)
	start = make([]int64, len(count))
	if s.Hdr.IsRecordVar(v) && len(count) > 0 && count[0] == 0 {
		inner := int64(1)
		for _, n := range count[1:] {
			inner *= n
		}
		if inner > 0 {
			count[0] = int64(SliceLen(data)) / inner
		}
	}
	return start, count, nil
}

// Move is one contiguous copy of variable data from its pre-Redef offset
// to its new one.
type Move struct{ From, To, N int64 }

// RelocationMoves lists the copies that carry every variable of old to its
// place in the current header, in descending destination order: the header
// only grows, so data only moves toward higher offsets, and copying the
// highest destination first never clobbers data not yet moved.
func (s *Schema) RelocationMoves(old *Header) []Move {
	h := s.Hdr
	var moves []Move
	for i := range h.Vars {
		nv := &h.Vars[i]
		oi := old.FindVar(nv.Name)
		if oi < 0 {
			continue // new variable, no data yet
		}
		ov := &old.Vars[oi]
		if h.IsRecordVar(nv) {
			for rec := old.NumRecs - 1; rec >= 0; rec-- {
				moves = append(moves, Move{old.RecordOffset(ov, rec), h.RecordOffset(nv, rec), ov.VSize})
			}
		} else {
			moves = append(moves, Move{ov.Begin, nv.Begin, ov.VSize})
		}
	}
	sort.SliceStable(moves, func(i, j int) bool { return moves[i].To > moves[j].To })
	return moves
}
