package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxCheck enforces cancellation hygiene. Two rules:
//
//  1. Library code (any non-main package; tests are outside the analysis
//     scope) must not mint its own root context with context.Background() or
//     context.TODO(): roots belong to the binary entry point, and a library
//     that fabricates one severs the caller's cancellation chain. The two
//     compatibility shims that deliberately root a context (core.Run,
//     partial's Exchange) carry //eagervet:ignore annotations explaining why.
//
//  2. A blocking collective or transport call issued from inside a loop must
//     be the cancellable variant when one exists: calling Recv in a
//     for-loop when RecvTimeout is available (same for *Cancel and *Context
//     siblings) recreates the unkillable-engine-loop bug the PR 5 chaos
//     suite exists to catch. The check fires only when the callee takes
//     neither a context.Context nor a stop/done channel and a sibling named
//     <Name>Cancel, <Name>Context or <Name>Timeout is in scope.
var CtxCheck = &Analyzer{
	Name: "ctxcheck",
	Doc:  "forbid context.Background/TODO in library code; require cancellable call variants inside loops",
	Run:  runCtxCheck,
}

func runCtxCheck(pass *Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, file := range pass.Files {
		parents := buildParents(file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil {
				return true
			}
			if !isMain && isContextRoot(fn) {
				pass.Report(call.Pos(),
					"library code must not call context.%s: accept a context (or stop channel) from the caller instead",
					fn.Name())
			}
			checkLoopCancellable(pass, parents, call, fn)
			return true
		})
	}
	return nil
}

func isContextRoot(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return false
	}
	return fn.Name() == "Background" || fn.Name() == "TODO"
}

// checkLoopCancellable flags a call inside a for/range body to a module-local
// function that has no cancellation input when a *Cancel/*Context/*Timeout
// sibling exists.
func checkLoopCancellable(pass *Pass, parents parentMap, call *ast.CallExpr, fn *types.Func) {
	if !isSourcePkg(pass.Facts, fn) {
		return
	}
	name := fn.Name()
	for _, suffix := range cancellableSuffixes {
		if strings.HasSuffix(name, suffix) {
			return
		}
	}
	if !inLoopBody(parents, call) {
		return
	}
	sig := fn.Type().(*types.Signature)
	if hasCancellationParam(sig) {
		return
	}
	variant := cancellableSibling(fn)
	if variant == "" {
		return
	}
	pass.Report(call.Pos(),
		"loop-resident call to %s has no cancellation path: use %s so shutdown can interrupt the loop",
		name, variant)
}

// inLoopBody reports whether n sits inside the body of a for or range
// statement within the same function (crossing into a closure resets the
// search: the closure may itself be the loop body's unit of work).
func inLoopBody(parents parentMap, n ast.Node) bool {
	for cur := parents[n]; cur != nil; cur = parents[cur] {
		switch cur.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}

// hasCancellationParam reports whether the signature accepts a
// context.Context or a struct{}-channel (done/stop channel) anywhere.
func hasCancellationParam(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		t := params.At(i).Type()
		if isContextType(t) || isSignalChan(t) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

func isSignalChan(t types.Type) bool {
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// cancellableSuffixes name the cancellable variant of a blocking call.
var cancellableSuffixes = []string{"Cancel", "Context", "Timeout"}

// cancellableSibling returns the name of a <Name>Cancel, <Name>Context or
// <Name>Timeout variant visible where fn is defined — a package-level
// function for package-level fn, a method on the same receiver type for
// methods.
func cancellableSibling(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	for _, suffix := range cancellableSuffixes {
		want := fn.Name() + suffix
		if recv := sig.Recv(); recv != nil {
			t := recv.Type()
			obj, _, _ := types.LookupFieldOrMethod(t, true, fn.Pkg(), want)
			if m, ok := obj.(*types.Func); ok && m != nil {
				return want
			}
		} else if fn.Pkg() != nil {
			if _, ok := fn.Pkg().Scope().Lookup(want).(*types.Func); ok {
				return want
			}
		}
	}
	return ""
}
