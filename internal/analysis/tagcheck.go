package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// TagCheck enforces the tag-block discipline (DESIGN.md, "Tag-space layout"):
// every distinct logical stream owns a named block of the message-tag space
// (collectives tagBase/tagSpan, partial DefaultBaseTag/TagSpan and the engine's
// offsets within it), and call sites must derive tags from those names. A raw integer literal passed
// as a tag argument silently collides with whichever block happens to cover
// that number — the class of bug the registries exist to prevent — so the
// analyzer flags any tag-position argument built purely from literals.
//
// A "tag position" is an integer-typed parameter whose name is, or ends or
// begins with, "tag" ("tag", "sendTag", "recvTag", "tagBase", ...), on any
// function in this module. Constant declarations are unaffected (the blocks
// themselves are defined with literals); 0 is allowed as the conventional
// "no tag / default stream" sentinel.
var TagCheck = &Analyzer{
	Name: "tagcheck",
	Doc:  "require message-tag arguments to derive from named tag-block constants, not raw literals",
	Run:  runTagCheck,
}

func runTagCheck(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCallTags(pass, n)
			case *ast.CompositeLit:
				checkCompositeTags(pass, n)
			}
			return true
		})
	}
	return nil
}

// isTagParamName reports whether a parameter or field name designates a
// message tag.
func isTagParamName(name string) bool {
	l := strings.ToLower(name)
	return l == "tag" || strings.HasSuffix(l, "tag") || strings.HasPrefix(l, "tag")
}

func isIntType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// checkCallTags inspects one call: for every tag-named integer parameter of a
// module-local callee, the argument must mention a named constant, variable,
// or call — not be assembled from literals alone.
func checkCallTags(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || !isSourcePkg(pass.Facts, fn) {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= params.Len() {
			pi = params.Len() - 1
		}
		if pi >= params.Len() {
			break
		}
		p := params.At(pi)
		if !isTagParamName(p.Name()) || !isIntType(p.Type()) {
			continue
		}
		reportLiteralTag(pass, arg, fn.Name(), p.Name())
	}
}

// checkCompositeTags inspects keyed composite literals (plan/op structs) for
// tag fields initialized from raw literals.
func checkCompositeTags(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	// Only police module-local struct types.
	if named, ok := tv.Type.(*types.Named); ok {
		if named.Obj().Pkg() == nil || !pass.Facts.sourcePaths[named.Obj().Pkg().Path()] {
			return
		}
	} else {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || !isTagParamName(key.Name) {
			continue
		}
		var fieldType types.Type
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == key.Name {
				fieldType = st.Field(i).Type()
				break
			}
		}
		if fieldType == nil || !isIntType(fieldType) {
			continue
		}
		reportLiteralTag(pass, kv.Value, tv.Type.String(), key.Name)
	}
}

// reportLiteralTag flags arg when it is built purely from literals (no named
// constant, variable, field, or call anywhere in the expression) and its
// constant value is not the 0 sentinel.
func reportLiteralTag(pass *Pass, arg ast.Expr, callee, param string) {
	if mentionsName(arg) {
		return
	}
	if tv, ok := pass.Info.Types[arg]; ok && tv.Value != nil {
		if v, exact := constant.Int64Val(tv.Value); exact && v == 0 {
			return
		}
	}
	pass.Report(arg.Pos(),
		"raw literal tag passed as %q to %s: derive tags from the named tag-block constants (collectives tagBase, partial.DefaultBaseTag, ...)",
		param, callee)
}

// mentionsName reports whether the expression contains any identifier or
// selector — i.e. whether the tag value is rooted in something named.
func mentionsName(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n.(type) {
		case *ast.Ident, *ast.SelectorExpr, *ast.CallExpr:
			found = true
			return false
		}
		return true
	})
	return found
}
