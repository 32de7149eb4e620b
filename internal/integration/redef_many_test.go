package integration

import (
	"fmt"
	"strings"
	"testing"

	"pnetcdf/internal/cdf"
	"pnetcdf/internal/core"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
	"pnetcdf/internal/netcdf"
)

// manyVars is the variable count of the many-variable Redef tests: enough
// that a per-variable linear name lookup in the relocation plan would be
// quadratic.
const manyVars = 2048

func manyVarName(i int) string { return fmt.Sprintf("v%04d", i) }

// manyVarData is the contents of variable i.
func manyVarData(i int) []int32 { return []int32{int32(i), 3 * int32(i), -int32(i), 7} }

// defineManyVars defines x=4 and manyVars int variables over it, then
// leaves define mode.
func defineManyVars(d schemaAPI) error {
	x, err := d.DefDim("x", 4)
	if err != nil {
		return err
	}
	for i := 0; i < manyVars; i++ {
		if _, err := d.DefVar(manyVarName(i), nctype.Int, []int{x}); err != nil {
			return err
		}
	}
	return d.EndDef()
}

// growHeader re-enters define mode, adds one variable and a global
// attribute of n bytes that grows the header, and leaves define mode:
// every old variable's data must move.
func growHeader(d schemaAPI, n int) error {
	before := d.Header().Vars[0].Begin
	if err := d.Redef(); err != nil {
		return err
	}
	if _, err := d.DefVar("added", nctype.Double, []int{d.DimID("x")}); err != nil {
		return err
	}
	if err := d.PutAttr(cdf.GlobalID, "history", nctype.Char, strings.Repeat("x", n)); err != nil {
		return err
	}
	if err := d.EndDef(); err != nil {
		return err
	}
	if after := d.Header().Vars[0].Begin; after <= before {
		return fmt.Errorf("header growth did not move the data: begin %d -> %d", before, after)
	}
	return nil
}

// checkManyVar compares variable i's read-back contents with what was
// written.
func checkManyVar(d schemaAPI, i int, got []int32) error {
	if id := d.VarID(manyVarName(i)); id != i {
		return fmt.Errorf("VarID(%s) = %d after Redef, want %d", manyVarName(i), id, i)
	}
	for k, w := range manyVarData(i) {
		if got[k] != w {
			return fmt.Errorf("%s[%d] = %d after Redef, want %d", manyVarName(i), k, got[k], w)
		}
	}
	return nil
}

// TestRedefRelocatesManyVarsSerial grows the header of a file with
// manyVars fixed variables and checks every variable's data survived the
// move.
func TestRedefRelocatesManyVarsSerial(t *testing.T) {
	d, err := netcdf.Create(&netcdf.MemStore{}, nctype.Clobber)
	if err != nil {
		t.Fatal(err)
	}
	if err := defineManyVars(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < manyVars; i++ {
		if err := d.PutVar(i, manyVarData(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := growHeader(d, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]int32, 4)
	for i := 0; i < manyVars; i++ {
		if err := d.GetVar(i, got); err != nil {
			t.Fatal(err)
		}
		if err := checkManyVar(d, i, got); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRedefRelocatesManyVarsParallel is the same on four ranks: each rank
// writes its share of the variables, and after the move every rank reads
// back all of them. A 4 KiB attribute moves the data by less than its
// 32 KiB extent, so destinations overlap sources and the root moves
// everything in order; a 64 KiB one moves it past its old end, and the
// moves are divided among the ranks.
func TestRedefRelocatesManyVarsParallel(t *testing.T) {
	for _, n := range []int{4 << 10, 64 << 10} {
		if err := redefManyVarsParallel(n); err != nil {
			t.Fatalf("%d-byte attribute: %v", n, err)
		}
	}
}

func redefManyVarsParallel(n int) error {
	fsys := newFS()
	return mpi.Run(4, mpi.DefaultNet(), func(c *mpi.Comm) error {
		d, err := core.Create(c, fsys, "many_redef.nc", nctype.Clobber, nil)
		if err != nil {
			return err
		}
		if err := defineManyVars(d); err != nil {
			return err
		}
		for i := c.Rank(); i < manyVars; i += c.Size() {
			if _, err := d.IPutVara(i, []int64{0}, []int64{4}, manyVarData(i)); err != nil {
				return err
			}
		}
		if err := d.WaitAll(); err != nil {
			return err
		}
		if err := growHeader(d, n); err != nil {
			return err
		}
		got := make([][]int32, manyVars)
		for i := range got {
			got[i] = make([]int32, 4)
			if _, err := d.IGetVara(i, []int64{0}, []int64{4}, got[i]); err != nil {
				return err
			}
		}
		if err := d.WaitAll(); err != nil {
			return err
		}
		for i := range got {
			if err := checkManyVar(d, i, got[i]); err != nil {
				return fmt.Errorf("rank %d: %w", c.Rank(), err)
			}
		}
		return d.Close()
	})
}
