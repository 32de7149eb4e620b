package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CollSym is the collective-symmetry checker: every process of a
// communicator must call collective operations in the same order (the MPI
// requirement behind nextOpCtx's lockstep sequence numbers and the reason a
// desynchronized run deadlocks instead of erroring). The classic way to
// break the rule is a collective call inside a branch conditioned on the
// process's rank:
//
//	if comm.Rank() == 0 {
//	    comm.Bcast(0, hdr)   // ranks != 0 never enter the Bcast: deadlock
//	}
//
// The checker flags every known collective call (mpi.Comm collectives,
// mpiio.File collective I/O and open/close, core.Dataset _all variants and
// the collective lifecycle calls) that appears on one arm of a
// rank-conditioned branch without a matching call on the other arm. A
// rank-guarded early return makes the rest of the enclosing block the other
// arm. The runtime complement is internal/mpi's PNETCDF_CHECK_COLLECTIVES
// sequence assertion; this checker catches the bug before it runs.
func CollSym() *Checker {
	return &Checker{
		Name: "collsym",
		Doc:  "collective calls must not be conditioned on the process rank",
		Run:  runCollSym,
	}
}

// collectiveMethods maps "pkg/path.TypeName" to the method names that are
// collective over the type's communicator. Methods with suffix "All" on
// these types are always collective and need not be listed.
var collectiveMethods = map[string]map[string]bool{
	"pnetcdf/internal/mpi.Comm": {
		"Barrier": true, "Bcast": true, "Gather": true, "Allgather": true,
		"Scatter": true, "Alltoall": true, "ReduceI64": true, "ReduceF64": true,
		"AllreduceI64": true, "AllreduceF64": true, "ExscanI64": true,
		"AgreeError": true, "AgreeSame": true, "Dup": true, "Split": true,
	},
	"pnetcdf/internal/mpiio.File": {
		"Close": true, "Sync": true, "SetView": true, "SetSize": true,
		"Preallocate": true,
	},
	"pnetcdf/internal/core.Dataset": {
		"EndDef": true, "Redef": true, "Close": true, "Sync": true,
		"BeginIndepData": true, "EndIndepData": true,
	},
}

// collectiveFuncs lists collective package-level functions by full path.
var collectiveFuncs = map[string]bool{
	"pnetcdf/internal/mpiio.Open":  true,
	"pnetcdf/internal/core.Create": true,
	"pnetcdf/internal/core.Open":   true,
}

// isCollective reports whether the call invokes a known collective (or, in
// interprocedural mode, a module helper whose summary says it may reach
// one), and if so under what display name. Helper-mediated names embed the
// helper's own identity, so the same helper called on both arms of a
// rank-conditioned branch still cancels.
func isCollective(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := pass.Callee(call)
	if fn == nil {
		return "", false
	}
	if name, ok := collectiveFuncName(fn); ok {
		return name, true
	}
	if pass.Engine != nil {
		if sum := pass.Engine.Summary(fn); sum != nil && sum.HasCollectives() {
			return fmt.Sprintf("%s (which may reach %s)",
				funcDisplayName(fn), strings.Join(sum.Collectives, ", ")), true
		}
	}
	return "", false
}

// rankDependent reports whether the condition expression depends on the
// process's rank: it calls a method named Rank/WorldRank/IsRoot, or it
// mentions an identifier conventionally holding a rank.
func rankDependent(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Rank", "WorldRank", "IsRoot":
					found = true
				}
			}
		case *ast.Ident:
			switch n.Name {
			case "rank", "myRank", "myrank", "isRoot", "root":
				found = true
			}
		}
		return !found
	})
	return found
}

func runCollSym(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for i, stmt := range block.List {
				ifs, ok := stmt.(*ast.IfStmt)
				if !ok || !rankDependent(ifs.Cond) {
					continue
				}
				then := collectiveCalls(pass, ifs.Body)
				var other map[string][]token.Pos
				switch {
				case ifs.Else != nil:
					other = collectiveCalls(pass, ifs.Else)
				case returnsNonNilError(pass, ifs.Body):
					// A rank-dependent branch that bails with an error is a
					// failure path: the collective error-agreement / world-
					// abort machinery reconciles the ranks, so the skipped
					// collectives after it are not a deadlock.
					continue
				case terminates(ifs.Body):
					// Rank-guarded early return: the remainder of the
					// enclosing block runs only on the ranks that did NOT
					// take the branch, so it is the de-facto other arm.
					rest := &ast.BlockStmt{List: block.List[i+1:]}
					other = collectiveCalls(pass, rest)
				default:
					other = map[string][]token.Pos{}
				}
				reportAsym(pass, then, other)
				reportAsym(pass, other, then)
			}
			return true
		})
	}
}

// collectiveCalls returns the collective calls inside stmt by display name,
// excluding those nested in further rank-dependent branches (they are
// reported against the inner branch) and in function literals (their
// execution context is unknown here).
func collectiveCalls(pass *Pass, stmt ast.Stmt) map[string][]token.Pos {
	out := map[string][]token.Pos{}
	if stmt == nil {
		return out
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IfStmt:
			if rankDependent(n.Cond) {
				return false
			}
		case *ast.CallExpr:
			if name, ok := isCollective(pass, n); ok {
				out[name] = append(out[name], n.Pos())
			}
		}
		return true
	})
	return out
}

// returnsNonNilError reports whether the block ends in a return whose
// results include an error-typed expression other than the nil literal —
// the shape of an error bail-out, as opposed to a plain rank-gated return.
// A return that itself calls a collective (return d.EndDef()) is not a
// bail-out: it is the rank-guarded collective.
func returnsNonNilError(pass *Pass, b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	ret, ok := b.List[len(b.List)-1].(*ast.ReturnStmt)
	if !ok || len(collectiveCalls(pass, ret)) > 0 {
		return false
	}
	for _, res := range ret.Results {
		if id, ok := ast.Unparen(res).(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		if t := pass.TypeOf(res); t != nil && types.Identical(t, types.Universe.Lookup("error").Type()) {
			return true
		}
	}
	return false
}

// terminates reports whether the block always transfers control out of the
// enclosing statement list (ends in return, panic-like call, or an
// unconditional branch).
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.BREAK || last.Tok == token.CONTINUE || last.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Abort" {
				return true
			}
		}
	}
	return false
}

// reportAsym reports every collective appearing more often in got than in
// want — the calls with no matching partner on the other arm.
func reportAsym(pass *Pass, got, want map[string][]token.Pos) {
	for name, positions := range got {
		missing := len(positions) - len(want[name])
		for i := 0; i < missing; i++ {
			pass.Reportf(positions[len(positions)-1-i],
				"collective %s is conditioned on the process rank with no matching call on the other ranks (all processes must call collectives in the same order)", name)
		}
	}
}
