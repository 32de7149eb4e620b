package cdf

import (
	"bytes"
	"testing"

	"pnetcdf/internal/nctype"
)

// simpleHeader builds the small dataset used throughout these tests:
//
//	dimensions: lat=3, lon=4, time=UNLIMITED
//	variables:  float temp(time, lat, lon); int mask(lat, lon)
//	global att: title = "t"
func simpleHeader(t *testing.T, version int) *Header {
	t.Helper()
	h := &Header{Version: version}
	h.Dims = []Dim{{"lat", 3}, {"lon", 4}, {"time", 0}}
	att, err := MakeAttr("title", nctype.Char, "t")
	if err != nil {
		t.Fatalf("MakeAttr: %v", err)
	}
	h.GAttrs = []Attr{att}
	h.Vars = []Var{
		{Name: "temp", DimIDs: []int{2, 0, 1}, Type: nctype.Float},
		{Name: "mask", DimIDs: []int{0, 1}, Type: nctype.Int},
	}
	if err := h.ComputeLayout(1); err != nil {
		t.Fatalf("ComputeLayout: %v", err)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return h
}

func TestGoldenCDF1Header(t *testing.T) {
	// A minimal file with one dimension and one variable, whose encoding is
	// constructed by hand from the classic format specification.
	h := &Header{Version: 1}
	h.Dims = []Dim{{"x", 2}}
	h.Vars = []Var{{Name: "v", DimIDs: []int{0}, Type: nctype.Short}}
	if err := h.ComputeLayout(1); err != nil {
		t.Fatal(err)
	}
	got := h.Encode()
	want := []byte{
		'C', 'D', 'F', 1,
		0, 0, 0, 0, // numrecs = 0
		0, 0, 0, 0x0A, // NC_DIMENSION
		0, 0, 0, 1, // nelems = 1
		0, 0, 0, 1, // name len 1
		'x', 0, 0, 0, // "x" padded
		0, 0, 0, 2, // dim length 2
		0, 0, 0, 0, 0, 0, 0, 0, // gatt_list ABSENT
		0, 0, 0, 0x0B, // NC_VARIABLE
		0, 0, 0, 1, // nelems = 1
		0, 0, 0, 1, // name len 1
		'v', 0, 0, 0, // "v" padded
		0, 0, 0, 1, // ndims = 1
		0, 0, 0, 0, // dimid 0
		0, 0, 0, 0, 0, 0, 0, 0, // vatt_list ABSENT
		0, 0, 0, 3, // nc_type = NC_SHORT
		0, 0, 0, 4, // vsize = 2*2 rounded to 4
		0, 0, 0, 80, // begin = header size (80)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden mismatch:\n got %v\nwant %v", got, want)
	}
	if h.EncodedSize() != int64(len(want)) {
		t.Fatalf("EncodedSize = %d, want %d", h.EncodedSize(), len(want))
	}
	if h.Vars[0].Begin != 80 {
		t.Fatalf("begin = %d, want 80", h.Vars[0].Begin)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, version := range []int{1, 2, 5} {
		h := simpleHeader(t, version)
		h.NumRecs = 7
		if err := h.ComputeLayout(1); err != nil {
			t.Fatal(err)
		}
		buf := h.Encode()
		if int64(len(buf)) != h.EncodedSize() {
			t.Fatalf("v%d: len(Encode())=%d EncodedSize=%d", version, len(buf), h.EncodedSize())
		}
		got, err := Decode(buf)
		if err != nil {
			t.Fatalf("v%d: Decode: %v", version, err)
		}
		if !got.Equal(h) {
			t.Fatalf("v%d: decoded header differs:\n got %+v\nwant %+v", version, got, h)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a netcdf file"),
		[]byte{'C', 'D', 'F', 3},       // bad version
		[]byte{'C', 'D', 'F', 1, 0, 0}, // truncated numrecs
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: Decode accepted garbage", i)
		}
	}
}

func TestDecodeTruncatedEverywhere(t *testing.T) {
	h := simpleHeader(t, 1)
	buf := h.Encode()
	for n := 0; n < len(buf); n++ {
		if _, err := Decode(buf[:n]); err == nil {
			t.Fatalf("Decode accepted %d-byte prefix of %d-byte header", n, len(buf))
		}
	}
}

func TestLayoutFixedThenRecord(t *testing.T) {
	h := simpleHeader(t, 1)
	temp, mask := &h.Vars[0], &h.Vars[1]
	if !h.IsRecordVar(temp) {
		t.Fatal("temp should be a record variable")
	}
	if h.IsRecordVar(mask) {
		t.Fatal("mask should be fixed")
	}
	// mask (fixed) must start right after the header, temp (record) after it.
	if mask.Begin != Round4(h.EncodedSize()) {
		t.Fatalf("mask.Begin=%d, want %d", mask.Begin, Round4(h.EncodedSize()))
	}
	if mask.VSize != 3*4*4 {
		t.Fatalf("mask.VSize=%d, want 48", mask.VSize)
	}
	if temp.Begin != mask.Begin+mask.VSize {
		t.Fatalf("temp.Begin=%d, want %d", temp.Begin, mask.Begin+mask.VSize)
	}
	if temp.VSize != 3*4*4 { // one record: lat*lon floats
		t.Fatalf("temp.VSize=%d, want 48", temp.VSize)
	}
	if h.RecSize() != temp.VSize {
		t.Fatalf("RecSize=%d, want %d", h.RecSize(), temp.VSize)
	}
}

func TestSingleRecordVarNoPadding(t *testing.T) {
	// With exactly one record variable of a small type, records are packed
	// with no padding (the classic special case).
	h := &Header{Version: 1}
	h.Dims = []Dim{{"t", 0}, {"x", 3}}
	h.Vars = []Var{{Name: "v", DimIDs: []int{0, 1}, Type: nctype.Short}}
	if err := h.ComputeLayout(1); err != nil {
		t.Fatal(err)
	}
	if h.Vars[0].VSize != 6 {
		t.Fatalf("single record var VSize=%d, want unpadded 6", h.Vars[0].VSize)
	}
	// Adding a second record variable restores padding.
	h.Vars = append(h.Vars, Var{Name: "w", DimIDs: []int{0}, Type: nctype.Byte})
	if err := h.ComputeLayout(1); err != nil {
		t.Fatal(err)
	}
	if h.Vars[0].VSize != 8 {
		t.Fatalf("record var VSize=%d, want padded 8", h.Vars[0].VSize)
	}
	if h.Vars[1].VSize != 4 {
		t.Fatalf("record var VSize=%d, want padded 4", h.Vars[1].VSize)
	}
	if h.RecSize() != 12 {
		t.Fatalf("RecSize=%d, want 12", h.RecSize())
	}
}

func TestRecordInterleaving(t *testing.T) {
	// Figure 1: records of all record variables are interleaved; record r of
	// variable v lives at v.Begin + r*RecSize().
	h := &Header{Version: 1}
	h.Dims = []Dim{{"t", 0}, {"x", 2}}
	h.Vars = []Var{
		{Name: "a", DimIDs: []int{0, 1}, Type: nctype.Int},
		{Name: "b", DimIDs: []int{0, 1}, Type: nctype.Int},
	}
	if err := h.ComputeLayout(1); err != nil {
		t.Fatal(err)
	}
	a, b := &h.Vars[0], &h.Vars[1]
	if b.Begin != a.Begin+a.VSize {
		t.Fatalf("b.Begin=%d, want %d", b.Begin, a.Begin+a.VSize)
	}
	if h.RecordOffset(a, 1) != a.Begin+16 {
		t.Fatalf("record 1 of a at %d, want %d", h.RecordOffset(a, 1), a.Begin+16)
	}
	if h.RecordOffset(b, 1) <= h.RecordOffset(a, 1) {
		t.Fatal("records must interleave in defined order")
	}
}

func TestCDF1OffsetOverflow(t *testing.T) {
	h := &Header{Version: 1}
	h.Dims = []Dim{{"x", 1 << 20}, {"y", 1 << 10}}
	h.Vars = []Var{
		{Name: "big", DimIDs: []int{0, 1}, Type: nctype.Double}, // 8 GiB
	}
	if err := h.ComputeLayout(1); err == nil {
		t.Fatal("CDF-1 must reject variables larger than 2 GiB")
	}
	h.Version = 2
	if err := h.ComputeLayout(1); err != nil {
		t.Fatalf("CDF-2 should accept an 8 GiB variable: %v", err)
	}
}

func TestHeaderAlignHint(t *testing.T) {
	h := simpleHeader(t, 1)
	if err := h.ComputeLayout(1024); err != nil {
		t.Fatal(err)
	}
	if h.DataStart()%1024 != 0 {
		t.Fatalf("data start %d not aligned to 1024", h.DataStart())
	}
}

func TestValidateCatchesMistakes(t *testing.T) {
	mk := func(mut func(*Header)) error {
		h := simpleHeader(t, 1)
		mut(h)
		return h.Validate()
	}
	cases := []struct {
		name string
		mut  func(*Header)
	}{
		{"dup dim", func(h *Header) { h.Dims = append(h.Dims, Dim{"lat", 5}) }},
		{"two unlimited", func(h *Header) { h.Dims = append(h.Dims, Dim{"t2", 0}) }},
		{"bad dimid", func(h *Header) { h.Vars[0].DimIDs = []int{99} }},
		{"record dim not first", func(h *Header) { h.Vars[0].DimIDs = []int{0, 2, 1} }},
		{"dup var", func(h *Header) { h.Vars[1].Name = "temp" }},
		{"bad name", func(h *Header) { h.Vars[1].Name = "a/b" }},
		{"bad type", func(h *Header) { h.Vars[1].Type = nctype.Type(99) }},
		{"cdf2 type in cdf1", func(h *Header) { h.Vars[1].Type = nctype.UInt64 }},
		{"negative dim", func(h *Header) { h.Dims[0].Len = -2 }},
		{"dup attr", func(h *Header) { h.GAttrs = append(h.GAttrs, h.GAttrs[0]) }},
	}
	for _, c := range cases {
		if err := mk(c.mut); err == nil {
			t.Errorf("%s: Validate accepted invalid header", c.name)
		}
	}
}

func TestCheckName(t *testing.T) {
	good := []string{"x", "_temp", "9lives", "a-b.c", "temp_2m"}
	for _, n := range good {
		if err := CheckName(n); err != nil {
			t.Errorf("CheckName(%q) = %v, want nil", n, err)
		}
	}
	bad := []string{"", " lead", "trail ", "a/b", "a\x01b", string(make([]byte, 300))}
	for _, n := range bad {
		if err := CheckName(n); err == nil {
			t.Errorf("CheckName(%q) accepted", n)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	h := simpleHeader(t, 1)
	c := h.Clone()
	c.Dims[0].Len = 99
	c.Vars[0].DimIDs[0] = 0
	c.GAttrs[0].Values[0] = 'X'
	if h.Dims[0].Len == 99 || h.Vars[0].DimIDs[0] == 0 || h.GAttrs[0].Values[0] == 'X' {
		t.Fatal("Clone shares memory with the original")
	}
	if !h.Clone().Equal(h) {
		t.Fatal("Clone not Equal to original")
	}
}

func TestFileSizeAndRecordStart(t *testing.T) {
	h := simpleHeader(t, 1)
	h.NumRecs = 5
	if err := h.ComputeLayout(1); err != nil {
		t.Fatal(err)
	}
	wantEnd := h.RecordStart() + 5*h.RecSize()
	if h.FileSize() != wantEnd {
		t.Fatalf("FileSize=%d, want %d", h.FileSize(), wantEnd)
	}
}

func TestVarShape(t *testing.T) {
	h := simpleHeader(t, 1)
	h.NumRecs = 9
	shape := h.VarShape(&h.Vars[0])
	if len(shape) != 3 || shape[0] != 9 || shape[1] != 3 || shape[2] != 4 {
		t.Fatalf("VarShape = %v, want [9 3 4]", shape)
	}
}

// Fuzz-style robustness: Decode must reject (not panic on) arbitrary
// mutations of a valid header.
func TestDecodeMutatedHeaderNeverPanics(t *testing.T) {
	h := simpleHeader(t, 1)
	base := h.Encode()
	for i := 0; i < len(base); i++ {
		for _, b := range []byte{0x00, 0xFF, 0x7F, base[i] + 1} {
			buf := append([]byte(nil), base...)
			buf[i] = b
			// Either a valid decode or an error — never a panic.
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Decode panicked with byte %d = %#x: %v", i, b, r)
					}
				}()
				_, _ = Decode(buf)
			}()
		}
	}
}

func TestDecodeRandomBytesNeverPanic(t *testing.T) {
	rng := newTestRand()
	for i := 0; i < 2000; i++ {
		n := rng.Intn(200)
		buf := make([]byte, n+4)
		copy(buf, []byte{'C', 'D', 'F', byte(1 + rng.Intn(5))})
		rng.Read(buf[4:])
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Decode panicked on random input %d: %v", i, r)
				}
			}()
			_, _ = Decode(buf)
		}()
	}
}

func TestCheckLayoutCleanAndCorrupted(t *testing.T) {
	h := simpleHeader(t, 1)
	h.NumRecs = 2
	if err := h.ComputeLayout(1); err != nil {
		t.Fatal(err)
	}
	if issues := h.CheckLayout(h.FileSize()); len(issues) != 0 {
		t.Fatalf("clean layout flagged: %v", issues)
	}
	// A larger file (preallocation) is fine.
	if issues := h.CheckLayout(h.FileSize() + 4096); len(issues) != 0 {
		t.Fatalf("preallocated file flagged: %v", issues)
	}
	// Truncated file is caught.
	if issues := h.CheckLayout(h.FileSize() - 1); len(issues) == 0 {
		t.Fatal("truncated file not flagged")
	}
	// Overlapping fixed variables are caught.
	c := h.Clone()
	c.Vars[0].Begin = c.Vars[1].Begin // temp is record; use two fixed
	c2 := h.Clone()
	c2.Vars = append(c2.Vars, Var{Name: "extra", DimIDs: []int{0}, Type: nctype.Int,
		VSize: 12, Begin: c2.Vars[1].Begin + 4})
	if issues := c2.CheckLayout(-1); len(issues) == 0 {
		t.Fatal("overlapping fixed slots not flagged")
	}
	// Wrong vsize is caught.
	c3 := h.Clone()
	c3.Vars[1].VSize += 4
	found := false
	for _, iss := range c3.CheckLayout(-1) {
		if iss.Var == "mask" {
			found = true
		}
	}
	if !found {
		t.Fatal("bad vsize not flagged")
	}
	// Begin inside the header is caught.
	c4 := h.Clone()
	c4.Vars[1].Begin = 4
	if issues := c4.CheckLayout(-1); len(issues) == 0 {
		t.Fatal("begin inside header not flagged")
	}
}

func TestCheckFile(t *testing.T) {
	h := simpleHeader(t, 1)
	img := h.Encode()
	// Pad to full declared size.
	full := make([]byte, h.FileSize())
	copy(full, img)
	got, issues, err := CheckFile(full)
	if err != nil || len(issues) != 0 || got.FindVar("temp") < 0 {
		t.Fatalf("CheckFile: %v %v", issues, err)
	}
	if _, _, err := CheckFile([]byte("garbage")); err == nil {
		t.Fatal("CheckFile accepted garbage")
	}
}

func TestSmallHelpers(t *testing.T) {
	h := simpleHeader(t, 1)
	if h.UnlimitedDimID() != 2 {
		t.Fatalf("UnlimitedDimID = %d", h.UnlimitedDimID())
	}
	if h.FindDim("lon") != 1 || h.FindDim("absent") != -1 {
		t.Fatal("FindDim wrong")
	}
	if FindAttr(h.GAttrs, "title") != 0 || FindAttr(h.GAttrs, "x") != -1 {
		t.Fatal("FindAttr wrong")
	}
	ids := h.SortedVarIDsByBegin()
	// mask (fixed) precedes temp (record section).
	if len(ids) != 2 || h.Vars[ids[0]].Name != "mask" || h.Vars[ids[1]].Name != "temp" {
		t.Fatalf("SortedVarIDsByBegin = %v", ids)
	}
	n, err := DecodedHeaderSize(h.Encode())
	if err != nil || n != h.EncodedSize() {
		t.Fatalf("DecodedHeaderSize = %d (%v), want %d", n, err, h.EncodedSize())
	}
	if _, err := DecodedHeaderSize([]byte("junk")); err == nil {
		t.Fatal("DecodedHeaderSize accepted junk")
	}
	iss := LayoutIssue{Var: "v", Desc: "broken"}
	if iss.String() != `variable "v": broken` {
		t.Fatalf("issue string = %q", iss.String())
	}
	if (LayoutIssue{Desc: "file-level"}).String() != "file-level" {
		t.Fatalf("file-level issue string wrong")
	}
}

func TestDecodeAttrValueAllTypes(t *testing.T) {
	mk := func(tp nctype.Type, val any) Attr {
		a, err := MakeAttr("a", tp, val)
		if err != nil {
			t.Fatalf("MakeAttr %v: %v", tp, err)
		}
		return a
	}
	cases := []struct {
		attr Attr
		chk  func(any) bool
	}{
		{mk(nctype.Char, "xy"), func(v any) bool { return string(v.([]byte)) == "xy" }},
		{mk(nctype.Byte, []int8{-3}), func(v any) bool { return v.([]int8)[0] == -3 }},
		{mk(nctype.Short, []int16{7}), func(v any) bool { return v.([]int16)[0] == 7 }},
		{mk(nctype.Int, []int32{9}), func(v any) bool { return v.([]int32)[0] == 9 }},
		{mk(nctype.Float, []float32{1.5}), func(v any) bool { return v.([]float32)[0] == 1.5 }},
		{mk(nctype.Double, []float64{2.5}), func(v any) bool { return v.([]float64)[0] == 2.5 }},
	}
	for i, c := range cases {
		v, err := DecodeAttrValue(c.attr)
		if err != nil || !c.chk(v) {
			t.Fatalf("case %d: %v %v", i, v, err)
		}
	}
	// CDF-5 types.
	for _, tp := range []nctype.Type{nctype.UByte, nctype.UShort, nctype.UInt, nctype.Int64, nctype.UInt64} {
		a, err := MakeAttr("a", tp, []uint16{3})
		if err != nil {
			t.Fatalf("%v: %v", tp, err)
		}
		if _, err := DecodeAttrValue(a); err != nil {
			t.Fatalf("decode %v: %v", tp, err)
		}
	}
}

func TestFillBytesDefaultsAndCustom(t *testing.T) {
	v := &Var{Name: "v", Type: nctype.Float}
	buf := FillBytes(v, 3)
	got := make([]float32, 3)
	if err := DecodeSlice(buf, nctype.Float, got); err != nil {
		t.Fatal(err)
	}
	for _, x := range got {
		if x != nctype.FillFloat {
			t.Fatalf("default fill = %v", got)
		}
	}
	// Custom _FillValue attribute wins.
	fa, _ := MakeAttr("_FillValue", nctype.Float, []float32{-5})
	v.Attrs = []Attr{fa}
	buf = FillBytes(v, 2)
	if err := DecodeSlice(buf, nctype.Float, got[:2]); err != nil {
		t.Fatal(err)
	}
	if got[0] != -5 || got[1] != -5 {
		t.Fatalf("custom fill = %v", got[:2])
	}
	// Every default type produces the right width.
	for _, tp := range []nctype.Type{nctype.Byte, nctype.Char, nctype.Short, nctype.Int, nctype.Double, nctype.Int64} {
		w := &Var{Name: "w", Type: tp}
		if len(FillBytes(w, 4)) != 4*tp.Size() {
			t.Fatalf("fill width for %v", tp)
		}
	}
}

func TestSliceLenAndPromote(t *testing.T) {
	cases := map[int]any{
		1: []int8{0}, 2: []int16{0, 0}, 3: []int32{0, 0, 0},
		4: []int64{0, 0, 0, 0}, 5: []uint8{0, 0, 0, 0, 0},
		6: []uint16{0, 0, 0, 0, 0, 0}, 7: []uint32{0, 0, 0, 0, 0, 0, 0},
		8: []uint64{0, 0, 0, 0, 0, 0, 0, 0}, 9: make([]float32, 9),
		10: make([]float64, 10), 11: "elevenchars",
	}
	for n, v := range cases {
		if SliceLen(v) != n {
			t.Fatalf("SliceLen(%T) = %d, want %d", v, SliceLen(v), n)
		}
	}
	if SliceLen(struct{}{}) != -1 {
		t.Fatal("SliceLen of unsupported type")
	}
	// promoteScalar via MakeAttr for every scalar kind.
	for _, scalar := range []any{int8(1), int16(1), int32(1), int64(1), int(1),
		uint8(1), uint16(1), uint32(1), uint64(1), float32(1), float64(1)} {
		a, err := MakeAttr("s", nctype.Double, scalar)
		if err != nil || a.Nelems != 1 {
			t.Fatalf("scalar %T: %+v %v", scalar, a, err)
		}
	}
}
