package cdf

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"pnetcdf/internal/nctype"
)

// nopCommitter accepts every data-mode header change.
type nopCommitter struct{}

func (nopCommitter) CommitHeader() error { return nil }

// scanDim and scanVar are the linear-scan oracle the name indexes must
// agree with: the ID of the first holder of name, or -1.
func scanDim(h *Header, name string) int {
	for i := range h.Dims {
		if h.Dims[i].Name == name {
			return i
		}
	}
	return -1
}

func scanVar(h *Header, name string) int {
	for i := range h.Vars {
		if h.Vars[i].Name == name {
			return i
		}
	}
	return -1
}

// indexNames is the name pool of the coherence test: short names collide
// often across steps, the last two are never valid.
var indexNames = []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l",
	"time", "x", "y", "longer_name", "a/b", ""}

// checkIndex compares every lookup path of s with the oracle, for every
// pooled name, every name in the header and a few absent ones.
func checkIndex(t *testing.T, s *Schema, step string) {
	t.Helper()
	names := append([]string{"absent", "zz"}, indexNames...)
	for _, d := range s.Hdr.Dims {
		names = append(names, d.Name)
	}
	for _, v := range s.Hdr.Vars {
		names = append(names, v.Name)
	}
	for _, h := range []*Header{s.Hdr, s.OldLayout} {
		if h == nil {
			continue
		}
		for _, n := range names {
			if got, want := h.FindDim(n), scanDim(h, n); got != want {
				t.Fatalf("%s: FindDim(%q) = %d, scan says %d", step, n, got, want)
			}
			if got, want := h.FindVar(n), scanVar(h, n); got != want {
				t.Fatalf("%s: FindVar(%q) = %d, scan says %d", step, n, got, want)
			}
		}
	}
	for _, n := range names {
		if got, want := s.DimID(n), scanDim(s.Hdr, n); got != want {
			t.Fatalf("%s: DimID(%q) = %d, scan says %d", step, n, got, want)
		}
		if got, want := s.VarID(n), scanVar(s.Hdr, n); got != want {
			t.Fatalf("%s: VarID(%q) = %d, scan says %d", step, n, got, want)
		}
	}
}

// indexSnapshot copies both indexes and list lengths before a call, so a
// failed call can be shown to have left them as they were.
type indexSnapshot struct {
	dims, vars map[string]int
	nd, nv     int
}

func snapshotIndex(h *Header) indexSnapshot {
	return indexSnapshot{maps.Clone(h.dimIndex), maps.Clone(h.varIndex), len(h.Dims), len(h.Vars)}
}

// unchanged reports whether h's lists kept their lengths and each index is
// as it was, except that an index out of step before the call (after a
// Clone) may have been rebuilt by the call's lookup; checkIndex then
// verifies the rebuilt one.
func (snap indexSnapshot) unchanged(h *Header) bool {
	return snap.nd == len(h.Dims) && snap.nv == len(h.Vars) &&
		(maps.Equal(snap.dims, h.dimIndex) || len(snap.dims) != snap.nd) &&
		(maps.Equal(snap.vars, h.varIndex) || len(snap.vars) != snap.nv)
}

// endDef leaves define mode the way both libraries' EndDef does, as far as
// the header is concerned.
func endDef(t *testing.T, s *Schema) {
	t.Helper()
	if err := s.Hdr.Validate(); err != nil {
		t.Fatalf("Validate after schema calls: %v", err)
	}
	if err := s.Hdr.ComputeLayout(1); err != nil {
		t.Fatalf("ComputeLayout: %v", err)
	}
	s.InDefine = false
	s.OldLayout = nil
}

// TestSchemaIndexCoherence drives seeded random sequences of define,
// rename, Redef, Clone and Encode→Decode steps through a Schema. After
// every step each name lookup must agree with a linear scan, and every
// call that fails must leave the indexes untouched.
func TestSchemaIndexCoherence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSchema(&Header{Version: 5}, true, false, nopCommitter{})
		pick := func() string { return indexNames[rng.Intn(len(indexNames))] }
		for i := 0; i < 600; i++ {
			var step string
			snap := snapshotIndex(s.Hdr)
			var err error
			switch op := rng.Intn(10); op {
			case 0, 1:
				name, size := pick(), int64(rng.Intn(4))
				step = fmt.Sprintf("DefDim(%q, %d)", name, size)
				held := scanDim(s.Hdr, name) >= 0
				var id int
				id, err = s.DefDim(name, size)
				if held && s.InDefine && !errors.Is(err, nctype.ErrNameInUse) {
					t.Fatalf("seed %d %s: duplicate accepted: %v", seed, step, err)
				}
				if err == nil && scanDim(s.Hdr, name) != id {
					t.Fatalf("seed %d %s: id %d is not the new dimension", seed, step, id)
				}
			case 2, 3:
				name := pick()
				var dimids []int
				for k := rng.Intn(3); k > 0 && len(s.Hdr.Dims) > 0; k-- {
					dimids = append(dimids, rng.Intn(len(s.Hdr.Dims)))
				}
				step = fmt.Sprintf("DefVar(%q, %v)", name, dimids)
				held := scanVar(s.Hdr, name) >= 0
				var id int
				id, err = s.DefVar(name, nctype.Int, dimids)
				if held && s.InDefine && !errors.Is(err, nctype.ErrNameInUse) {
					t.Fatalf("seed %d %s: duplicate accepted: %v", seed, step, err)
				}
				if err == nil && scanVar(s.Hdr, name) != id {
					t.Fatalf("seed %d %s: id %d is not the new variable", seed, step, id)
				}
			case 4:
				id := rng.Intn(len(s.Hdr.Dims)+1) - 1 // -1: a bad ID
				name := pick()
				if id >= 0 && rng.Intn(4) == 0 {
					name = s.Hdr.Dims[id].Name // rename to self
				}
				step = fmt.Sprintf("RenameDim(%d, %q)", id, name)
				holder := scanDim(s.Hdr, name)
				err = s.RenameDim(id, name)
				if holder >= 0 && holder != id && !errors.Is(err, nctype.ErrNameInUse) && id >= 0 {
					t.Fatalf("seed %d %s: collision with %d accepted: %v", seed, step, holder, err)
				}
			case 5:
				id := rng.Intn(len(s.Hdr.Vars)+1) - 1
				name := pick()
				if id >= 0 && rng.Intn(4) == 0 {
					name = s.Hdr.Vars[id].Name
				}
				step = fmt.Sprintf("RenameVar(%d, %q)", id, name)
				holder := scanVar(s.Hdr, name)
				err = s.RenameVar(id, name)
				if holder >= 0 && holder != id && !errors.Is(err, nctype.ErrNameInUse) && id >= 0 {
					t.Fatalf("seed %d %s: collision with %d accepted: %v", seed, step, holder, err)
				}
			case 6:
				step = "EndDef+Redef"
				if s.InDefine {
					endDef(t, &s)
				}
				err = s.Redef()
			case 7:
				step = "EndDef"
				if s.InDefine {
					endDef(t, &s)
				}
			case 8:
				step = "Clone"
				s.Hdr = s.Hdr.Clone()
			case 9:
				step = "Encode+Decode"
				if err := s.Hdr.ComputeLayout(1); err != nil {
					t.Fatalf("seed %d: ComputeLayout: %v", seed, err)
				}
				h, err := Decode(s.Hdr.Encode())
				if err != nil {
					t.Fatalf("seed %d: Decode: %v", seed, err)
				}
				s.Hdr = h
			}
			step = fmt.Sprintf("seed %d step %d %s", seed, i, step)
			if err != nil && !snap.unchanged(s.Hdr) {
				t.Fatalf("%s: failed call (%v) changed the index", step, err)
			}
			checkIndex(t, &s, step)
		}
	}
}

// TestFindOnLiteralHeader covers headers built and changed without a
// Schema: the index follows every change of list length.
func TestFindOnLiteralHeader(t *testing.T) {
	h := simpleHeader(t, 1)
	if h.FindVar("mask") != 1 || h.FindDim("time") != 2 {
		t.Fatal("lookup on a literal header")
	}
	h.Vars = append(h.Vars, Var{Name: "extra", Type: nctype.Int})
	h.Dims = h.Dims[:2]
	if h.FindVar("extra") != 2 || h.FindDim("time") != -1 {
		t.Fatal("lookup after the lists changed length")
	}
	// A duplicate name (an invalid header) resolves to its first holder.
	h.Vars = append(h.Vars, Var{Name: "temp", Type: nctype.Int})
	if h.FindVar("temp") != 0 || h.FindVar("extra") != 2 {
		t.Fatal("lookup with a duplicate name")
	}
}

// manyVarSchema returns a define-mode schema holding n variables.
func manyVarSchema(b *testing.B, n int) Schema {
	s := NewSchema(&Header{Version: 5}, true, false, nopCommitter{})
	x, err := s.DefDim("x", 64)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := s.DefVar(fmt.Sprintf("var_%05d", i), nctype.Float, []int{x}); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkDefVar times defining every variable of a file. With O(1) name
// lookup the cost grows about linearly in the variable count; a linear
// scan made it quadratic.
func BenchmarkDefVar(b *testing.B) {
	for _, n := range []int{1000, 8000} {
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				manyVarSchema(b, n)
			}
		})
	}
}

var foundVar int

// BenchmarkFindVar times one lookup of each of 8k variable names.
func BenchmarkFindVar(b *testing.B) {
	b.Run("8k", func(b *testing.B) {
		s := manyVarSchema(b, 8000)
		names := make([]string, len(s.Hdr.Vars))
		for i := range names {
			names[i] = s.Hdr.Vars[i].Name
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, n := range names {
				foundVar = s.Hdr.FindVar(n)
			}
		}
	})
}
