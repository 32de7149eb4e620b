package core

import (
	"errors"
	"testing"
	"time"

	"pnetcdf/internal/fault"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
)

// TestEndDefFailureAgreed crashes a write inside EndDef's data phase — the
// root's prefill, or a relocation move after a header-growing Redef — and
// requires one agreed outcome: EndDef fails on every rank (the crash on the
// rank that wrote, mpi.ErrPeerFailed on the others), and Close then returns
// on every rank instead of hanging on a rank left behind in EndDef.
func TestEndDefFailureAgreed(t *testing.T) {
	const nranks = 2
	// define builds one 4 KiB fixed variable, ends define mode and reports
	// the variable's file offset.
	define := func(d *Dataset) (int64, error) {
		x, err := d.DefDim("x", 1024)
		if err != nil {
			return 0, err
		}
		v, err := d.DefVar("v", nctype.Float, []int{x})
		if err != nil {
			return 0, err
		}
		if err := d.EndDef(); err != nil {
			return 0, err
		}
		return d.Header().Vars[v].Begin, nil
	}
	// arm sets the crash point on the root, the ranks then meet.
	arm := func(c *mpi.Comm, in *fault.Injector, at int64) {
		if c.Rank() == 0 {
			in.ArmCrash(at, false)
		}
		c.Barrier()
	}
	cases := []struct {
		name string
		// run drives d to an EndDef whose data phase writes across a crash
		// point inside the variable, and returns that EndDef's error.
		run func(c *mpi.Comm, in *fault.Injector, d *Dataset) error
	}{
		{"fill", func(c *mpi.Comm, in *fault.Injector, d *Dataset) error {
			d.SetFill(true)
			// A lone variable starts right after the small header, so
			// byte 2048 lies inside it.
			arm(c, in, 2048)
			_, err := define(d)
			return err
		}},
		{"relocate", func(c *mpi.Comm, in *fault.Injector, d *Dataset) error {
			begin, err := define(d)
			if err != nil {
				return err
			}
			half := make([]float32, 512)
			if err := d.PutVaraAll(0, []int64{int64(c.Rank()) * 512}, []int64{512}, half); err != nil {
				return err
			}
			if err := d.Redef(); err != nil {
				return err
			}
			if err := d.PutAttr(GlobalID, "history", nctype.Char, string(make([]byte, 512))); err != nil {
				return err
			}
			arm(c, in, begin+2048)
			return d.EndDef()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fsys := testFS()
			in := fault.New(fault.Config{Seed: 1})
			fsys.SetFault(in)
			var endErrs [nranks]error
			done := make(chan error, 1)
			go func() {
				done <- mpi.Run(nranks, mpi.DefaultNet(), func(c *mpi.Comm) error {
					d, err := Create(c, fsys, tc.name+".nc", nctype.Clobber, nil)
					if err != nil {
						return err
					}
					endErrs[c.Rank()] = tc.run(c, in, d)
					d.Close() // must return; its own outcome is not checked here
					return nil
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(20 * time.Second):
				t.Fatal("EndDef or Close hung after a failed write")
			}
			if in.Injected() == 0 {
				t.Fatal("crash point never reached; the test no longer exercises EndDef's data phase")
			}
			crashed := 0
			for r, err := range endErrs {
				switch {
				case errors.Is(err, fault.ErrCrashed):
					crashed++
				case errors.Is(err, mpi.ErrPeerFailed):
				default:
					t.Errorf("rank %d: EndDef = %v, want the crash or %v", r, err, mpi.ErrPeerFailed)
				}
			}
			if crashed != 1 {
				t.Errorf("%d ranks saw the crash, want exactly the one that wrote: %v", crashed, endErrs)
			}
		})
	}
}
