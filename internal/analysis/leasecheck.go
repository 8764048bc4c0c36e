package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LeaseCheck enforces the PR 2 buffer-ownership model (DESIGN.md, "Buffer
// ownership & pooling"): every vector leased with tensor.GetVector /
// GetVectorZero / GetVectorCopy must leave the function through exactly one
// ownership edge — tensor.PutVector, an ownership-transferring send
// (comm.Send payload), storage into longer-lived state, a
// return, or a callee annotated //eagersgd:takes-ownership. The analysis is
// intra-function and flow-approximate (lexical dominance over the AST):
//
//   - a lease with no release, transfer, store, or capture anywhere in the
//     function is a straight-line leak;
//   - a return statement reachable after the lease with no prior (or
//     deferred) release on the path is an early-return leak;
//   - a second release dominated by a first is a double release;
//   - any use dominated by a strict release (PutVector / Send) is a
//     use-after-release or use-after-send.
//
// Dominance never crosses sibling branches or loop boundaries, so the
// "already released" and "use after release" findings are certain; the leak
// findings are conservative and can be silenced case by case with
// //eagervet:ignore leasecheck -- <reason> when ownership demonstrably leaves
// through an edge the analyzer cannot see.
var LeaseCheck = &Analyzer{
	Name: "leasecheck",
	Doc:  "verify pool leases (tensor.GetVector*) are released or transferred exactly once on every path",
	Run:  runLeaseCheck,
}

// leaseEventKind classifies what happens to a lease at one syntactic site.
type leaseEventKind int

const (
	evUse          leaseEventKind = iota // borrow: read, slice, pass to an ordinary call
	evRelease                            // strict release: tensor.PutVector
	evTransfer                           // strict transfer: comm.Send payload
	evAnnotated                          // callee annotated //eagersgd:takes-ownership
	evStored                             // stored into a field/map/slice/channel/global or aliased
	evReturned                           // returned to the caller
	evCaptured                           // captured by a (non-defer-release) closure
	evDeferRelease                       // released inside a defer registered at this position
)

type leaseEvent struct {
	kind leaseEventKind
	node ast.Node // the identifier use (or defer statement for evDeferRelease)
	call *ast.CallExpr
}

// ownershipEdge reports whether the event passes ownership out of the
// function, satisfying the leak checks.
func (e leaseEvent) ownershipEdge() bool {
	switch e.kind {
	case evRelease, evTransfer, evAnnotated, evStored, evReturned, evCaptured, evDeferRelease:
		return true
	}
	return false
}

// strictRelease reports whether the event certainly invalidates the lease at
// its site (arming use-after-release and double-release).
func (e leaseEvent) strictRelease() bool {
	return e.kind == evRelease || e.kind == evTransfer
}

type leaseInstance struct {
	obj    *types.Var
	name   string
	get    *ast.CallExpr // the tensor.Get* call minting the lease
	getPos token.Pos
	endPos token.Pos // next reassignment of the variable, or scope end
	events []leaseEvent
}

func runLeaseCheck(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					leaseCheckFunc(pass, fn.Body)
				}
				return false // leaseCheckFunc handles nested closures itself
			}
			return true
		})
	}
	return nil
}

// leaseCheckFunc analyzes one top-level function body, including nested
// closures: each closure body is analyzed as its own scope for leases minted
// inside it, while outer leases referenced from a closure count as captured.
func leaseCheckFunc(pass *Pass, body *ast.BlockStmt) {
	parents := buildParents(body)
	var scopes []ast.Node // function-scope roots: the body plus nested FuncLits
	scopes = append(scopes, body)
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			scopes = append(scopes, fl.Body)
		}
		return true
	})
	for _, scope := range scopes {
		leaseCheckScope(pass, parents, scope.(*ast.BlockStmt))
	}
}

// scopeRootOf returns the function-scope body (outer body or closure body)
// that directly contains n.
func scopeRootOf(parents parentMap, n ast.Node, outer *ast.BlockStmt) ast.Node {
	for cur := n; cur != nil; cur = parents[cur] {
		if fl, ok := cur.(*ast.FuncLit); ok {
			return fl.Body
		}
		if cur == ast.Node(outer) {
			return outer
		}
	}
	return nil
}

func leaseCheckScope(pass *Pass, parents parentMap, scope *ast.BlockStmt) {
	info := pass.Info
	// Pass 1: find the lease-minting assignments whose LHS is a plain local
	// identifier. (Get calls used directly as arguments or return values pass
	// ownership on immediately and need no tracking.)
	var instances []*leaseInstance
	ast.Inspect(scope, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		if scopeRootOf(parents, as, scope) != ast.Node(scope) {
			return true // minted inside a nested closure; that scope handles it
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || !isLeaseGet(pass, call) {
			return true
		}
		if len(as.Lhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		obj := localVar(info, id)
		if obj == nil {
			return true
		}
		instances = append(instances, &leaseInstance{
			obj:    obj,
			name:   id.Name,
			get:    call,
			getPos: as.Pos(),
			endPos: obj.Parent().End(),
		})
		return true
	})
	if len(instances) == 0 {
		return
	}

	// Truncate each instance at the variable's next reassignment.
	byVar := make(map[*types.Var][]*leaseInstance)
	for _, inst := range instances {
		byVar[inst.obj] = append(byVar[inst.obj], inst)
	}
	ast.Inspect(scope, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := assignedVar(info, id)
			if obj == nil {
				continue
			}
			for _, inst := range byVar[obj] {
				if as.Pos() > inst.getPos && as.Pos() < inst.endPos {
					inst.endPos = as.Pos()
				}
			}
		}
		return true
	})

	// Pass 2: classify every use of each instance's variable in its range.
	ast.Inspect(scope, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok {
			return true
		}
		for _, inst := range byVar[obj] {
			if id.Pos() > inst.getPos && id.Pos() < inst.endPos {
				ev := classifyLeaseUse(pass, parents, scope, id)
				inst.events = append(inst.events, ev)
			}
		}
		return true
	})

	// Pass 3: diagnostics.
	var returns []*ast.ReturnStmt
	ast.Inspect(scope, func(n ast.Node) bool {
		if r, ok := n.(*ast.ReturnStmt); ok && scopeRootOf(parents, r, scope) == ast.Node(scope) {
			returns = append(returns, r)
		}
		return true
	})
	for _, inst := range instances {
		sort.Slice(inst.events, func(i, j int) bool { return inst.events[i].node.Pos() < inst.events[j].node.Pos() })
		reportLeaseDiagnostics(pass, parents, inst, returns)
	}
}

func reportLeaseDiagnostics(pass *Pass, parents parentMap, inst *leaseInstance, returns []*ast.ReturnStmt) {
	edge := false
	for _, ev := range inst.events {
		if ev.ownershipEdge() {
			edge = true
			break
		}
	}
	if !edge {
		pass.Report(inst.get.Pos(),
			"pool lease %q is never released or transferred: add tensor.PutVector, hand it to an owning call, or annotate the consumer //eagersgd:takes-ownership",
			inst.name)
		return
	}

	// Early-return leak: a return inside the lease's live range that no
	// ownership edge (generously: any edge lexically before the return, or a
	// defer registered before it) covers.
	for _, ret := range returns {
		if ret.Pos() <= inst.getPos || ret.Pos() >= inst.endPos {
			continue
		}
		covered := false
		for _, ev := range inst.events {
			if ev.node.Pos() < ret.End() && ev.ownershipEdge() {
				covered = true
				break
			}
		}
		if !covered {
			pass.Report(ret.Pos(),
				"pool lease %q (leased at line %d) may leak on this return path: release it or defer tensor.PutVector before returning",
				inst.name, pass.Fset.Position(inst.getPos).Line)
		}
	}

	// Double release and use-after-release, using strict dominance.
	for i, rel := range inst.events {
		if !rel.strictRelease() && rel.kind != evDeferRelease {
			continue
		}
		for j, ev := range inst.events {
			if i == j || rel.call != nil && ev.call == rel.call {
				continue
			}
			switch {
			case ev.strictRelease():
				if rel.kind == evDeferRelease {
					// A deferred release runs last: any strict release after
					// the defer's registration releases the lease twice.
					if d := deferStmtOf(parents, rel.node); d != nil && d.Pos() < ev.node.Pos() {
						pass.Report(ev.node.Pos(),
							"pool lease %q released twice: a deferred release is registered at line %d",
							inst.name, pass.Fset.Position(d.Pos()).Line)
					}
				} else if lexicallyDominates(parents, rel.node, ev.node) {
					pass.Report(ev.node.Pos(),
						"pool lease %q already released at line %d", inst.name, pass.Fset.Position(rel.node.Pos()).Line)
				}
			default:
				if rel.strictRelease() && lexicallyDominates(parents, rel.node, ev.node) {
					what := "release"
					if rel.kind == evTransfer {
						what = "ownership transfer"
					}
					pass.Report(ev.node.Pos(),
						"use of pool lease %q after %s at line %d", inst.name, what, pass.Fset.Position(rel.node.Pos()).Line)
				}
			}
		}
	}
}

// isLeaseGet reports whether the call mints a pool lease: tensor.GetVector,
// GetVectorZero, or GetVectorCopy (in internal/tensor or its public facade).
func isLeaseGet(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || !pkgNameIs(fn.Pkg(), "tensor") {
		return false
	}
	switch fn.Name() {
	case "GetVector", "GetVectorZero", "GetVectorCopy":
		return true
	}
	return false
}

// isLeaseRelease reports whether fn is the strict release tensor.PutVector.
func isLeaseRelease(fn *types.Func) bool {
	return fn != nil && pkgNameIs(fn.Pkg(), "tensor") && fn.Name() == "PutVector"
}

// isOwnershipTransfer reports whether fn consumes its payload argument:
// comm.Communicator.Send (ownership transfers even on error).
func isOwnershipTransfer(fn *types.Func) bool {
	return fn != nil && pkgNameIs(fn.Pkg(), "comm") && fn.Name() == "Send" &&
		fn.Type().(*types.Signature).Recv() != nil
}

// classifyLeaseUse determines what one identifier occurrence does with the
// lease, by walking up from the identifier through value-transparent nodes
// (parens, slices) to the consuming construct.
func classifyLeaseUse(pass *Pass, parents parentMap, scope *ast.BlockStmt, id *ast.Ident) leaseEvent {
	ev := leaseEvent{kind: evUse, node: id}

	// Captured by a closure nested below this scope?
	if scopeRootOf(parents, id, scope) != ast.Node(scope) {
		// Inside a nested closure. A deferred closure that releases the lease
		// is the canonical cleanup idiom; classify by the consuming call if
		// there is one, else treat as captured.
		ev = classifyConsumer(pass, parents, id)
		if ev.strictRelease() && inDefer(parents, id) {
			return leaseEvent{kind: evDeferRelease, node: id, call: ev.call}
		}
		if ev.strictRelease() || ev.kind == evAnnotated {
			// Released inside a non-defer closure: when the closure runs is
			// unknowable here; treat as captured (ownership leaves).
			return leaseEvent{kind: evCaptured, node: id, call: ev.call}
		}
		return leaseEvent{kind: evCaptured, node: id}
	}

	ev = classifyConsumer(pass, parents, id)
	if ev.strictRelease() && inDefer(parents, id) {
		return leaseEvent{kind: evDeferRelease, node: id, call: ev.call}
	}
	return ev
}

// classifyConsumer inspects the syntactic context of the identifier.
func classifyConsumer(pass *Pass, parents parentMap, id *ast.Ident) leaseEvent {
	info := pass.Info
	var cur ast.Node = id
	for {
		parent := parents[cur]
		if parent == nil {
			return leaseEvent{kind: evUse, node: id}
		}
		switch p := parent.(type) {
		case *ast.ParenExpr:
			cur = parent
			continue
		case *ast.SliceExpr:
			if p.X == cur {
				cur = parent // v[lo:hi] still aliases the lease
				continue
			}
			return leaseEvent{kind: evUse, node: id}
		case *ast.CallExpr:
			if ast.Unparen(p.Fun) == cur || isArgOf(p, cur) < 0 {
				return leaseEvent{kind: evUse, node: id}
			}
			fn := calleeFunc(info, p)
			switch {
			case isLeaseRelease(fn):
				return leaseEvent{kind: evRelease, node: id, call: p}
			case isOwnershipTransfer(fn) && isVectorArg(info, p, cur):
				return leaseEvent{kind: evTransfer, node: id, call: p}
			case fn != nil && pass.Facts != nil && pass.Facts.TakesOwnership[fn.FullName()]:
				return leaseEvent{kind: evAnnotated, node: id, call: p}
			case fn == nil && isBuiltinAppend(info, p):
				return leaseEvent{kind: evStored, node: id, call: p}
			}
			return leaseEvent{kind: evUse, node: id, call: p}
		case *ast.AssignStmt:
			for i, rhs := range p.Rhs {
				if ast.Unparen(rhs) != cur {
					continue
				}
				// The lease value flows into another location, aliasing or
				// storing it — unless the target is the blank identifier,
				// which discards the value and keeps ownership here.
				if i < len(p.Lhs) {
					if lhs, ok := p.Lhs[i].(*ast.Ident); ok && lhs.Name == "_" {
						return leaseEvent{kind: evUse, node: id}
					}
				}
				return leaseEvent{kind: evStored, node: id}
			}
			return leaseEvent{kind: evUse, node: id}
		case *ast.ReturnStmt:
			return leaseEvent{kind: evReturned, node: id}
		case *ast.CompositeLit:
			return leaseEvent{kind: evStored, node: id}
		case *ast.KeyValueExpr:
			cur = parent
			continue
		case *ast.SendStmt:
			if p.Value == cur {
				return leaseEvent{kind: evStored, node: id}
			}
			return leaseEvent{kind: evUse, node: id}
		case *ast.IndexExpr, *ast.StarExpr, *ast.UnaryExpr, *ast.BinaryExpr,
			*ast.SelectorExpr, *ast.TypeAssertExpr, *ast.RangeStmt, *ast.IfStmt,
			*ast.ForStmt, *ast.SwitchStmt, *ast.ExprStmt, *ast.IncDecStmt, *ast.CaseClause:
			return leaseEvent{kind: evUse, node: id}
		default:
			return leaseEvent{kind: evUse, node: id}
		}
	}
}

// isArgOf returns the argument index of expr in call, or -1.
func isArgOf(call *ast.CallExpr, expr ast.Node) int {
	for i, a := range call.Args {
		if ast.Unparen(a) == expr {
			return i
		}
	}
	return -1
}

// isVectorArg reports whether expr occupies a vector-typed (payload)
// parameter of the call — the position through which ownership transfers.
func isVectorArg(info *types.Info, call *ast.CallExpr, expr ast.Node) bool {
	idx := isArgOf(call, expr)
	if idx < 0 {
		return false
	}
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	sig := fn.Type().(*types.Signature)
	if idx >= sig.Params().Len() {
		if !sig.Variadic() {
			return false
		}
		idx = sig.Params().Len() - 1
	}
	t := sig.Params().At(idx).Type()
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float64
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// localVar returns the *types.Var defined or used by id when it is a
// function-local variable (not a field, global, or parameter of another
// function).
func localVar(info *types.Info, id *ast.Ident) *types.Var {
	var obj types.Object
	if def, ok := info.Defs[id]; ok {
		obj = def
	} else if use, ok := info.Uses[id]; ok {
		obj = use
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	if v.Parent() == nil || v.Parent().Parent() == nil {
		return nil // package-level
	}
	return v
}

// assignedVar resolves the variable an assignment LHS identifier refers to
// (covering both := definitions and = reassignments).
func assignedVar(info *types.Info, id *ast.Ident) *types.Var {
	if def, ok := info.Defs[id].(*types.Var); ok {
		return def
	}
	if use, ok := info.Uses[id].(*types.Var); ok {
		return use
	}
	return nil
}
