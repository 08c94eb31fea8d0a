package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoroleakPackages lists the import paths (exact, or as a prefix of
// path+"/") whose goroutines must be provably cancellable or joinable. The
// restore-under-deadline guarantee lives in exactly these packages: a
// leaked goroutine there holds locks, queues, or model state past the point
// the watchdog thinks the instance is fenced, and the chaos e2e only
// catches that class at runtime — this analyzer catches it at review time.
var GoroleakPackages = []string{
	"repro/internal/governor",
	"repro/internal/perception",
	"repro/internal/metrics",
	"repro/internal/telemetry",
	// Covered by the telemetry prefix rule, listed explicitly: the window
	// tier's persistence store and key math must stay deterministic and
	// goroutine-clean (time flows in as parameters, never from time.Now).
	"repro/internal/telemetry/window",
	// Covered by the telemetry prefix rule, listed explicitly because the
	// exporter's periodic push loop is the longest-lived goroutine in the
	// tree.
	"repro/internal/telemetry/otlp",
	// The dispatcher's worker pool, joined by Close.
	"repro/internal/fleet",
	"repro/internal/fault",
	"repro/internal/health",
	"repro/internal/core",
	// Every connection spawns a reader and a writer; Shutdown must be able
	// to join all of them, plus the accept loop, pumps, and router.
	"repro/internal/ingest",
}

// AnalyzerGoroleak audits every `go` statement in registered packages
// (GoroleakPackages): the spawned body — a function literal, or a function
// or method declared in the same package — must contain a reachable
// cancellation or completion point: a channel receive/send/close or range,
// a select over channels, a ctx.Done()/ctx.Err() call, a WaitGroup
// Done/Wait, or a call that passes a context, channel, or WaitGroup onward
// (delegated cancellation). A spawn into another package must delegate a
// signal through the call's receiver or arguments. Anything else is a
// goroutine the spawner can neither stop nor join — the leak class that
// silently rots the restore deadline.
//
// goroleak subsumes the "touches a signal value" half of ctxbound and digs
// one level deeper: ctxbound accepts a body that merely *references* a
// context, goroleak requires the body to consume or forward one.
var AnalyzerGoroleak = &Analyzer{
	Name:     "goroleak",
	Severity: SeverityError,
	Doc: "in long-lived packages (see GoroleakPackages), every go statement must have a reachable " +
		"cancellation/completion path: channel receive/send/close/range, ctx.Done/Err, WaitGroup " +
		"Done/Wait, or delegation of a context/channel/WaitGroup to the callee.",
	Run: runGoroleak,
}

func runGoroleak(pass *Pass) error {
	if !goroleakApplies(pass.PkgPath) {
		return nil
	}
	decls := declIndex(pass)
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !spawnCancellable(pass, g.Call, decls, map[*ast.BlockStmt]bool{}) {
				pass.Reportf(g.Pos(), "goroutine has no reachable cancellation or completion path "+
					"(channel op, ctx.Done, or WaitGroup); the spawner can neither stop nor join it")
			}
			return true
		})
	}
	return nil
}

func goroleakApplies(pkgPath string) bool {
	for _, p := range GoroleakPackages {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// declIndex maps each function object declared in this package to its
// declaration, so a `go f()` or `go s.loop()` spawn can be audited through
// the callee's body.
func declIndex(pass *Pass) map[*types.Func]*ast.FuncDecl {
	idx := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				idx[fn] = fd
			}
		}
	}
	return idx
}

// spawnCancellable decides whether the spawned call's execution has a
// cancellation/completion point. seen guards recursion through mutually
// recursive same-package helpers.
func spawnCancellable(pass *Pass, call *ast.CallExpr, decls map[*types.Func]*ast.FuncDecl, seen map[*ast.BlockStmt]bool) bool {
	// A signal-typed receiver or argument at the spawn site counts: the
	// callee was handed a way to stop.
	if callDelegatesSignal(pass, call) {
		return true
	}
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		return bodyCancellable(pass, fun.Body, decls, seen)
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			if fd, ok := decls[fn]; ok && fd.Body != nil {
				return bodyCancellable(pass, fd.Body, decls, seen)
			}
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			if fd, ok := decls[fn]; ok && fd.Body != nil {
				return bodyCancellable(pass, fd.Body, decls, seen)
			}
		}
	}
	// Callee body not visible (other package, interface method, func
	// value) and no signal delegated: not provably cancellable.
	return false
}

// bodyCancellable walks one function body looking for a cancellation or
// completion point. Nested function literals are part of the body's
// control flow (they run on this goroutine unless spawned again) and are
// included; calls to same-package functions recurse one level at a time
// with cycle protection.
func bodyCancellable(pass *Pass, body *ast.BlockStmt, decls map[*types.Func]*ast.FuncDecl, seen map[*ast.BlockStmt]bool) bool {
	if body == nil || seen[body] {
		return false
	}
	seen[body] = true
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			// <-ch: the goroutine blocks on (or polls) a channel the
			// spawner controls.
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.SendStmt:
			// ch <- v: completion/result handoff the spawner can join on.
			found = true
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if callIsSignalOp(pass, n) || callDelegatesSignal(pass, n) {
				found = true
				return false
			}
			// Recurse into same-package callees: `go d.worker()` is
			// cancellable when worker ranges over d's job channel.
			var fn *types.Func
			switch f := n.Fun.(type) {
			case *ast.Ident:
				fn, _ = pass.TypesInfo.Uses[f].(*types.Func)
			case *ast.SelectorExpr:
				fn, _ = pass.TypesInfo.Uses[f.Sel].(*types.Func)
			}
			if fn != nil {
				if fd, ok := decls[fn]; ok && fd.Body != nil && bodyCancellable(pass, fd.Body, decls, seen) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// callIsSignalOp reports whether call is itself a signal operation:
// close(ch), a WaitGroup Done/Wait, or a context Done/Err.
func callIsSignalOp(pass *Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := pass.TypesInfo.Uses[fun].(*types.Builtin); ok && b.Name() == "close" {
			return true
		}
	case *ast.SelectorExpr:
		fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "sync":
			if recvNamed(fn) == "WaitGroup" && (fn.Name() == "Done" || fn.Name() == "Wait") {
				return true
			}
		case "context":
			if recvNamed(fn) == "Context" && (fn.Name() == "Done" || fn.Name() == "Err" || fn.Name() == "Deadline") {
				return true
			}
		}
	}
	return false
}

// recvNamed returns the name of fn's receiver type (dereferenced), or "".
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// callDelegatesSignal reports whether the call hands a context, channel, or
// WaitGroup to its callee — through an argument or the method receiver —
// which counts as forwarding the cancellation responsibility.
func callDelegatesSignal(pass *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if t := pass.TypesInfo.TypeOf(arg); t != nil && isSignalType(t) {
			return true
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if t := pass.TypesInfo.TypeOf(sel.X); t != nil && isSignalType(t) {
			return true
		}
	}
	return false
}
