// Package collsym is the golden fixture for the collective-symmetry
// checker. It calls the real pnetcdf/internal/mpi collectives so the
// checker's full-path type matching is exercised exactly as on module code.
package collsym

import (
	"pnetcdf/internal/core"
	"pnetcdf/internal/mpi"
)

// rankGuardedCollective is the canonical bug: only rank 0 enters the
// Barrier, every other rank deadlocks.
func rankGuardedCollective(c *mpi.Comm) {
	if c.Rank() == 0 {
		c.Barrier() // want `collective Comm\.Barrier is conditioned on the process rank`
	}
}

// rankGuardedEarlyReturn: the guarded return makes the remainder of the
// function the other arm, which rank != 0 never reaches.
func rankGuardedEarlyReturn(c *mpi.Comm) {
	if c.Rank() != 0 {
		return
	}
	c.Bcast(0, nil) // want `collective Comm\.Bcast is conditioned on the process rank`
}

// symmetric is fine: both arms call the same collective.
func symmetric(c *mpi.Comm, hdr []byte) {
	if c.Rank() == 0 {
		c.Bcast(0, hdr)
	} else {
		c.Bcast(0, nil)
	}
	c.Barrier()
}

// errorBailout is fine: a rank-dependent branch that returns a non-nil
// error is a failure path, reconciled by collective error agreement.
func errorBailout(c *mpi.Comm, err error) error {
	if c.Rank() == 0 && err != nil {
		return err
	}
	c.Barrier()
	return nil
}

// rankGuardedCollectiveReturn: returning an error does not make a branch a
// bail-out when the returned expression is itself the collective — only
// rank 0 enters EndDef, and the other ranks never meet it.
func rankGuardedCollectiveReturn(c *mpi.Comm, d *core.Dataset) error {
	if c.Rank() == 0 {
		return d.EndDef() // want `collective Dataset\.EndDef is conditioned on the process rank`
	}
	return nil
}

// closureExcluded is fine: a collective inside a function literal runs in a
// context this intraprocedural checker cannot see, so it is not counted.
func closureExcluded(c *mpi.Comm) func() {
	if c.Rank() == 0 {
		return func() { c.Barrier() }
	}
	return nil
}

// suppressed shows the escape hatch: a justified annotation on the line
// above the call.
func suppressed(c *mpi.Comm) {
	if c.Rank() == 0 {
		//nclint:allow=collsym -- fixture: peers drain this via point-to-point in the same round
		c.Barrier()
	}
}
