// Package fix is the golden fixture for the interprocedural collsym
// upgrade: the collective is hidden behind a cross-package helper, so only
// the summary-based engine can connect the rank-conditioned branch to the
// Barrier it eventually reaches. The same fixture must be CLEAN under the
// intraprocedural checker (the strictly-more proof in the harness).
package fix

import (
	"fixture/collsym_interp/helper"

	"pnetcdf/internal/core"
	"pnetcdf/internal/mpi"
	"pnetcdf/internal/nctype"
)

// rankGuardedHelper is the canonical bug one extraction away: only rank 0
// enters the helper, and the helper reaches a Barrier.
func rankGuardedHelper(c *mpi.Comm) {
	if c.Rank() == 0 {
		helper.SyncAll(c) // want `collective SyncAll \(which may reach Comm\.Barrier\) is conditioned on the process rank`
	}
}

// rankGuardedDeepHelper reaches the collective through two levels of
// helpers; the fixed-point summary propagation still sees it.
func rankGuardedDeepHelper(c *mpi.Comm) {
	if c.Rank() == 0 {
		helper.SyncTwice(c) // want `collective SyncTwice \(which may reach Comm\.Barrier\) is conditioned on the process rank`
	}
}

// symmetricHelper is fine: both arms run the same helper, so the hidden
// Barrier executes on every rank.
func symmetricHelper(c *mpi.Comm, hdr []byte) {
	if c.Rank() == 0 {
		helper.SyncAll(c)
	} else {
		helper.SyncAll(c)
	}
}

// pureHelper is fine: the helper reaches no collective.
func pureHelper(c *mpi.Comm) {
	if c.Rank() == 0 {
		helper.Pure(c)
	}
}

// rankGuardedDataModeRename: a data-mode rename commits the header
// collectively, so only rank 0 entering it leaves the others behind. The
// rename is not a listed collective; only the summary of the header commit
// it reaches reveals the agreement inside.
func rankGuardedDataModeRename(c *mpi.Comm, d *core.Dataset) {
	if c.Rank() == 0 {
		_ = d.RenameVar(0, "t") // want `collective \w+\.RenameVar \(which may reach [^)]*Comm\.AgreeError`
	}
}

// rankGuardedDataModePutAttr: the same for a data-mode attribute
// overwrite.
func rankGuardedDataModePutAttr(c *mpi.Comm, d *core.Dataset) {
	if c.Rank() == 0 {
		_ = d.PutAttr(core.GlobalID, "step", nctype.Int, []int32{1}) // want `collective \w+\.PutAttr \(which may reach [^)]*Comm\.AgreeError`
	}
}
