// Package lockdisc enforces pghive's write-lock discipline. The
// serving layer names its lock-requiring helpers with a Locked suffix
// (commitGroupLocked, rotateLocked, failFastLocked, …): the name is a
// contract that the caller holds the write lock. This analyzer makes
// the contract mechanical: a *Locked function may only be used inside
// a function that is itself *Locked or that visibly acquires a write
// lock (a Lock() or LockContext() call anywhere in its body, function
// literals included — the sync.Once.Do(func(){ mu.Lock(); … }) idiom
// counts). References count as uses too, so passing a *Locked method
// as a replay callback from an unlocked function is flagged.
//
// The batch-apply rule itself (writer.ingest / retract / apply) carries
// no suffix and is out of this analyzer's reach on purpose: it is ONE
// function shared by owners that lock (live serving) and owners that
// need no lock (recovery's and a follower bootstrap's private state),
// so its contract is exclusive ownership, like core.Incremental's —
// the suffix is kept for what only ever runs under the lock.
//
// It also guards snapshot publication: the copy-on-publish snapshot
// must be swapped in through an atomic.Pointer Store, never written
// to a plain field — a direct `x.snap = …` assignment is flagged
// wherever it appears in scope.
//
// Scope: the root pghive package (service.go, durable.go,
// groupcommit.go, ship.go), and the internal/wal, internal/vfs,
// internal/core packages.
package lockdisc

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/pghive/pghive/internal/analysis"
)

// Analyzer enforces the *Locked-suffix lock discipline and the
// atomic-pointer snapshot-publication rule.
var Analyzer = &analysis.Analyzer{
	Name: "lockdisc",
	Doc: "uses of *Locked helpers must occur in functions that hold the write lock " +
		"(or are *Locked themselves); snapshots publish via atomic.Pointer.Store, never a field write",
	Run: run,
}

func inScope(pass *analysis.Pass) bool {
	if pass.Pkg.Name() == "pghive" {
		return true
	}
	for _, suffix := range []string{"internal/wal", "internal/vfs", "internal/core"} {
		if analysis.PathEndsWith(pass.Pkg.Path(), suffix) {
			return true
		}
	}
	return false
}

// snapshotFields are the field names the publication rule guards.
var snapshotFields = map[string]bool{"snap": true, "snapshot": true}

func run(pass *analysis.Pass) error {
	if !inScope(pass) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkSnapshotWrites(pass, fd)
			if strings.HasSuffix(fd.Name.Name, "Locked") || acquiresWriteLock(fd.Body) {
				continue
			}
			checkLockedUses(pass, fd)
		}
	}
	return nil
}

// acquiresWriteLock reports whether body lexically contains a write
// lock acquisition — a call to anything named Lock or LockContext.
// Function literals count: the lock conventionally outlives them.
func acquiresWriteLock(body *ast.BlockStmt) bool {
	return analysis.ContainsCall(body, func(call *ast.CallExpr) bool {
		name := analysis.CalleeName(call)
		return name == "Lock" || name == "LockContext"
	})
}

// checkLockedUses reports every use (call or reference) of a *Locked
// function inside a function that neither holds the lock nor carries
// the suffix itself.
func checkLockedUses(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if !ok || !strings.HasSuffix(obj.Name(), "Locked") {
			return true
		}
		pass.Reportf(id.Pos(), "use of %s in %s, which neither holds the write lock (no Lock/LockContext call) nor has the Locked suffix", obj.Name(), fd.Name.Name)
		return true
	})
}

// checkSnapshotWrites flags direct assignments to a snapshot field;
// publication must go through the atomic.Pointer swap.
func checkSnapshotWrites(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok || !snapshotFields[sel.Sel.Name] {
				continue
			}
			if s, ok := pass.TypesInfo.Selections[sel]; !ok || s.Kind() != types.FieldVal {
				continue
			}
			pass.Reportf(sel.Pos(), "direct write to snapshot field %s: readers are lock-free, so publication must go through the atomic.Pointer Store swap", sel.Sel.Name)
		}
		return true
	})
}
