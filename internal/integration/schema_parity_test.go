package integration

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/core"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
)

// schemaAPI is the define-mode and inquiry surface the serial and parallel
// libraries share.
type schemaAPI interface {
	DefDim(name string, size int64) (int, error)
	DefVar(name string, t nctype.Type, dimids []int) (int, error)
	PutAttr(varid int, name string, t nctype.Type, value any) error
	GetAttr(varid int, name string) (nctype.Type, any, error)
	DelAttr(varid int, name string) error
	AttrNames(varid int) ([]string, error)
	RenameDim(dimid int, newName string) error
	RenameVar(varid int, newName string) error
	RenameAttr(varid int, oldName, newName string) error
	NumDims() int
	NumVars() int
	NumRecs() int64
	UnlimitedDimID() int
	DimID(name string) int
	VarID(name string) int
	InqDim(dimid int) (string, int64, error)
	InqVar(varid int) (string, nctype.Type, []int, error)
	VarShape(varid int) ([]int64, error)
	EndDef() error
	Redef() error
	Header() *cdf.Header
}

// parityStep is one call of the parity script: run returns a rendering of
// its results and its error, which must match want (nil for success).
type parityStep struct {
	name string
	run  func(d schemaAPI) (string, error)
	want error
}

// stepRecord is what one library produced for one step.
type stepRecord struct {
	result string
	err    error
	header []byte
}

func defDim(name string, size int64) func(schemaAPI) (string, error) {
	return func(d schemaAPI) (string, error) {
		id, err := d.DefDim(name, size)
		return fmt.Sprint(id), err
	}
}

func defVar(name string, t nctype.Type, dimids ...int) func(schemaAPI) (string, error) {
	return func(d schemaAPI) (string, error) {
		id, err := d.DefVar(name, t, dimids)
		return fmt.Sprint(id), err
	}
}

func putAttr(varid int, name string, t nctype.Type, value any) func(schemaAPI) (string, error) {
	return func(d schemaAPI) (string, error) { return "", d.PutAttr(varid, name, t, value) }
}

// fillTo runs def(i) for i from have() up to n-1; every call must succeed.
func fillTo(n int, have func(schemaAPI) int, def func(d schemaAPI, i int) error) func(schemaAPI) (string, error) {
	return func(d schemaAPI) (string, error) {
		for i := have(d); i < n; i++ {
			if err := def(d, i); err != nil {
				return fmt.Sprint(i), err
			}
		}
		return "", nil
	}
}

// parityScript walks the define, attribute, rename and inquiry calls
// through their success and error cases, including data-mode growth and
// the format's count limits. Dimension IDs: time 0, y 1, x 2; variable
// flux 0.
func parityScript() []parityStep {
	const g = cdf.GlobalID
	attrCount := func(d schemaAPI) int { n, _ := d.AttrNames(0); return len(n) }
	return []parityStep{
		{"def time", defDim("time", 0), nil},
		{"def y", defDim("y", 4), nil},
		{"def x", defDim("x", 8), nil},
		{"dup dim", defDim("x", 3), nctype.ErrNameInUse},
		{"second unlimited", defDim("t2", 0), nctype.ErrMultiUnlimited},
		{"negative dim", defDim("neg", -1), nctype.ErrBadDim},
		{"bad dim name", defDim("a/b", 2), nctype.ErrBadName},
		{"def flux", defVar("flux", nctype.Double, 0, 1, 2), nil},
		{"unlimited not first", defVar("bad", nctype.Double, 1, 0), nctype.ErrUnlimPos},
		{"bad var type", defVar("bad", nctype.Type(99), 1), nctype.ErrBadType},
		{"CDF-5 type in CDF-2", defVar("bad", nctype.UInt64, 1), nctype.ErrBadType},
		{"dup var", defVar("flux", nctype.Int, 1), nctype.ErrNameInUse},
		{"missing dim", defVar("bad", nctype.Int, 99), nctype.ErrBadDim},
		{"too many var dims", defVar("bad", nctype.Int, make([]int, nctype.MaxDims+1)...), nctype.ErrMaxDims},
		{"title", putAttr(g, "title", nctype.Char, "parity"), nil},
		{"units", putAttr(0, "units", nctype.Char, "W/m2"), nil},
		{"bad attr type before value", putAttr(0, "scale", nctype.Type(99), "not a number"), nctype.ErrBadType},
		{"CDF-5 attr type in CDF-2", putAttr(0, "scale", nctype.Int64, []int64{1}), nctype.ErrBadType},
		{"attr on missing var", putAttr(99, "a", nctype.Int, []int32{1}), nctype.ErrNotVar},
		{"bad attr name", putAttr(g, "", nctype.Int, []int32{1}), nctype.ErrBadName},
		{"get units", func(d schemaAPI) (string, error) {
			t, v, err := d.GetAttr(0, "units")
			return fmt.Sprint(t, v), err
		}, nil},
		{"get missing attr", func(d schemaAPI) (string, error) {
			_, _, err := d.GetAttr(0, "nope")
			return "", err
		}, nctype.ErrNotAtt},
		{"del missing attr", func(d schemaAPI) (string, error) { return "", d.DelAttr(0, "nope") }, nctype.ErrNotAtt},
		{"temporary attr", putAttr(g, "temp", nctype.Short, []int16{1, 2}), nil},
		{"del temporary", func(d schemaAPI) (string, error) { return "", d.DelAttr(g, "temp") }, nil},
		{"rename dim", func(d schemaAPI) (string, error) { return "", d.RenameDim(2, "xx") }, nil},
		{"rename dim in use", func(d schemaAPI) (string, error) { return "", d.RenameDim(2, "y") }, nctype.ErrNameInUse},
		{"rename missing dim", func(d schemaAPI) (string, error) { return "", d.RenameDim(9, "q") }, nctype.ErrNotDim},
		{"rename var", func(d schemaAPI) (string, error) { return "", d.RenameVar(0, "heat") }, nil},
		{"rename var bad name", func(d schemaAPI) (string, error) { return "", d.RenameVar(0, "a/b") }, nctype.ErrBadName},
		{"rename attr", func(d schemaAPI) (string, error) { return "", d.RenameAttr(g, "title", "name") }, nil},
		{"rename missing attr", func(d schemaAPI) (string, error) { return "", d.RenameAttr(g, "nope", "z") }, nctype.ErrNotAtt},
		{"inquire", func(d schemaAPI) (string, error) {
			dn, dl, err1 := d.InqDim(2)
			vn, vt, vd, err2 := d.InqVar(0)
			shape, err3 := d.VarShape(0)
			names, err4 := d.AttrNames(cdf.GlobalID)
			return fmt.Sprint(d.NumDims(), d.NumVars(), d.NumRecs(), d.UnlimitedDimID(),
				d.DimID("y"), d.VarID("heat"), dn, dl, vn, vt, vd, shape, names), errors.Join(err1, err2, err3, err4)
		}, nil},
		{"inquire missing", func(d schemaAPI) (string, error) {
			_, _, _, err := d.InqVar(5)
			_, err2 := d.VarShape(-1)
			_, _, err3 := d.InqDim(7)
			return fmt.Sprint(err2, err3), err
		}, nctype.ErrNotVar},
		{"enddef", func(d schemaAPI) (string, error) { return "", d.EndDef() }, nil},
		{"def in data mode", defDim("late", 1), nctype.ErrNotInDefine},
		{"del in data mode", func(d schemaAPI) (string, error) { return "", d.DelAttr(g, "name") }, nctype.ErrNotInDefine},
		{"data-mode overwrite", putAttr(g, "name", nctype.Char, "parit"), nil},
		{"data-mode attr growth", putAttr(g, "name", nctype.Char, "a much longer value"), nctype.ErrNotInDefine},
		{"data-mode new attr", putAttr(g, "fresh", nctype.Int, []int32{1}), nctype.ErrNotInDefine},
		{"data-mode rename", func(d schemaAPI) (string, error) { return "", d.RenameVar(0, "hot") }, nil},
		{"data-mode rename growth", func(d schemaAPI) (string, error) { return "", d.RenameVar(0, "much_longer") }, nctype.ErrNotInDefine},
		{"data-mode dim rename", func(d schemaAPI) (string, error) { return "", d.RenameDim(2, "x") }, nil},
		{"data-mode attr rename", func(d schemaAPI) (string, error) { return "", d.RenameAttr(g, "name", "nm") }, nil},
		{"redef", func(d schemaAPI) (string, error) { return "", d.Redef() }, nil},
		{"redef twice", func(d schemaAPI) (string, error) { return "", d.Redef() }, nctype.ErrInDefine},
		{"dims to limit", fillTo(nctype.MaxDims, schemaAPI.NumDims, func(d schemaAPI, i int) error {
			_, err := d.DefDim(fmt.Sprintf("d%d", i), 1)
			return err
		}), nil},
		{"one dim too many", defDim("extra", 1), nctype.ErrMaxDims},
		{"vars to limit", fillTo(nctype.MaxVars, schemaAPI.NumVars, func(d schemaAPI, i int) error {
			_, err := d.DefVar(fmt.Sprintf("v%d", i), nctype.Byte, nil)
			return err
		}), nil},
		{"one var too many", defVar("extra", nctype.Byte), nctype.ErrMaxVars},
		{"attrs to limit", fillTo(nctype.MaxAttrs, attrCount, func(d schemaAPI, i int) error {
			return d.PutAttr(0, fmt.Sprintf("a%d", i), nctype.Byte, []int8{1})
		}), nil},
		{"one attr too many", putAttr(0, "extra", nctype.Byte, []int8{1}), nctype.ErrMaxAtts},
		{"overwrite at the limit", putAttr(0, "a9", nctype.Byte, []int8{2}), nil},
		{"enddef at the limits", func(d schemaAPI) (string, error) { return "", d.EndDef() }, nil},
	}
}

// runParity runs the script on d, recording each step.
func runParity(d schemaAPI, script []parityStep) []stepRecord {
	recs := make([]stepRecord, len(script))
	for i, s := range script {
		res, err := s.run(d)
		recs[i] = stepRecord{result: res, err: err, header: d.Header().Encode()}
	}
	return recs
}

// TestSchemaParity runs one table of define, attribute, rename and inquiry
// calls through the serial library, the parallel library on one rank and
// on four ranks. Every run must return the same errors and build
// byte-identical headers after every step, and the headers left on disk
// must be byte-identical and reopen.
func TestSchemaParity(t *testing.T) {
	script := parityScript()

	store := &netcdf.MemStore{}
	nd, err := netcdf.Create(store, nctype.Bit64Offset)
	if err != nil {
		t.Fatal(err)
	}
	serial := runParity(nd, script)
	if err := nd.Close(); err != nil {
		t.Fatal(err)
	}
	for i, s := range script {
		if err := serial[i].err; !errors.Is(err, s.want) {
			t.Errorf("serial step %q: error %v, want %v", s.name, err, s.want)
		}
	}
	if _, err := cdf.Decode(store.Data); err != nil {
		t.Fatalf("serial file at the format limits does not reopen: %v", err)
	}

	for _, nranks := range []int{1, 4} {
		fsys := newFS()
		recs := make([][]stepRecord, nranks)
		err := mpi.Run(nranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
			d, err := core.Create(c, fsys, "parity.nc", nctype.Clobber|nctype.Bit64Offset, nil)
			if err != nil {
				return err
			}
			recs[c.Rank()] = runParity(d, script)
			return d.Close()
		})
		if err != nil {
			t.Fatalf("%d ranks: %v", nranks, err)
		}
		for r := 0; r < nranks; r++ {
			for i, s := range script {
				got, want := recs[r][i], serial[i]
				if !errors.Is(got.err, s.want) || fmt.Sprint(got.err) != fmt.Sprint(want.err) {
					t.Errorf("%d ranks, rank %d, step %q: error %v, serial %v", nranks, r, s.name, got.err, want.err)
				}
				if got.result != want.result {
					t.Errorf("%d ranks, rank %d, step %q: result %s, serial %s", nranks, r, s.name, got.result, want.result)
				}
				if !bytes.Equal(got.header, want.header) {
					t.Errorf("%d ranks, rank %d, step %q: header image differs from serial", nranks, r, s.name)
				}
			}
		}
		// The files' tails differ by commit protocol (the serial Close
		// recommits the header); the header images on disk must not.
		img := readPFSFile(t, fsys, "parity.nc")
		n := len(serial[len(script)-1].header)
		if len(img) < n || !bytes.Equal(img[:n], store.Data[:n]) {
			t.Errorf("%d ranks: header on disk differs from the serial file's", nranks)
		}
	}
}
