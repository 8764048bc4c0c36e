// Package analysis implements eagervet, the repository's static-analysis
// suite. It encodes the stack's hand-maintained invariant systems — the
// buffer-ownership/lease model of internal/tensor and internal/comm, the
// per-stream tag-block discipline of internal/partial and internal/collectives,
// and the leak-free-shutdown rules pinned by the chaos suite — as compile-time
// checks, so every new package upholds them without re-learning the idioms
// from DESIGN.md (see the "Invariants as code" section there).
//
// The package is self-contained on the Go standard library: it mirrors the
// shape of golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic, golden
// tests over testdata/src) without depending on it, because this repository
// builds with no third-party modules. The cmd/eagervet driver runs the suite
// over package patterns; see that command and DESIGN.md for usage.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //eagervet:ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run analyzes one package and reports findings via Pass.Report.
	Run func(*Pass) error
}

// A Pass provides one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed source files (tests excluded).
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Facts carries module-wide annotation knowledge collected at load time
	// (//eagersgd:takes-ownership callees, goroutine join evidence).
	Facts *Facts

	diags *[]Diagnostic
}

// Report records a diagnostic at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Facts is the module-wide annotation registry, built while packages are
// loaded from source. It stands in for go/analysis fact propagation: because
// the loader type-checks every in-module dependency from source, annotations
// on a callee are visible when any caller is analyzed.
type Facts struct {
	// TakesOwnership holds the full names (types.Func.FullName) of functions
	// whose doc comment carries //eagersgd:takes-ownership: passing a pool
	// lease to them transfers the lease out of the caller.
	TakesOwnership map[string]bool
	// JoinEvidence holds the full names of functions whose body contains
	// goroutine join plumbing (a WaitGroup.Done, the close of a done-style
	// channel, or a select/receive on a channel): `go f()` of such a function
	// is considered joinable by lifecyclecheck.
	JoinEvidence map[string]bool

	// sourcePaths records the import paths loaded from source (module
	// packages and testdata stubs) as opposed to export data (stdlib).
	sourcePaths map[string]bool
}

// NewFacts returns an empty registry.
func NewFacts() *Facts {
	return &Facts{
		TakesOwnership: make(map[string]bool),
		JoinEvidence:   make(map[string]bool),
		sourcePaths:    make(map[string]bool),
	}
}

// TakesOwnershipDirective is the annotation, written in a function's doc
// comment, that tells leasecheck the function assumes ownership of any pool
// lease passed to it (storing it in a plan, handing it to a transport, ...).
const TakesOwnershipDirective = "eagersgd:takes-ownership"

// collectFacts scans one type-checked package's syntax for fact-bearing
// declarations. Called by the loader for every module and testdata package.
func (f *Facts) collectFacts(files []*ast.File, info *types.Info) {
	for _, file := range files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if fd.Doc != nil {
				for _, c := range fd.Doc.List {
					if strings.Contains(c.Text, TakesOwnershipDirective) {
						f.TakesOwnership[obj.FullName()] = true
					}
				}
			}
			if fd.Body != nil && hasJoinEvidence(fd.Body, info) {
				f.JoinEvidence[obj.FullName()] = true
			}
		}
	}
}

// All returns the full eagervet suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{LeaseCheck, TagCheck, LifecycleCheck, CtxCheck}
}

// Run executes the analyzers over one loaded package, applies the
// //eagervet:ignore suppression directives, and returns the surviving
// diagnostics sorted by position. Malformed directives (missing reason,
// unknown analyzer name) surface as diagnostics of the pseudo-analyzer
// "eagervet".
func Run(pkg *Package, azs []*Analyzer, fset *token.FileSet, facts *Facts) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, az := range azs {
		pass := &Pass{
			Analyzer: az,
			Fset:     fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Facts:    facts,
			diags:    &diags,
		}
		if err := az.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", az.Name, pkg.Path, err)
		}
	}
	known := make(map[string]bool, len(azs))
	for _, az := range azs {
		known[az.Name] = true
	}
	dirs, bad := parseIgnoreDirectives(pkg.Files, fset, known)
	diags = applyIgnores(diags, dirs, fset)
	diags = append(diags, bad...)
	sort.SliceStable(diags, func(i, j int) bool {
		if diags[i].Pos != diags[j].Pos {
			return diags[i].Pos < diags[j].Pos
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// pkgNameIs reports whether the package's import path identifies the named
// subsystem: its last path element equals name. This matches both the real
// module layout ("eagersgd/internal/tensor", "eagersgd/tensor") and the flat
// stub packages used by the analyzers' golden tests ("tensor").
func pkgNameIs(p *types.Package, names ...string) bool {
	if p == nil {
		return false
	}
	path := p.Path()
	last := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		last = path[i+1:]
	}
	for _, n := range names {
		if last == n {
			return true
		}
	}
	return false
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil for
// calls through function-typed values, builtins, and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.IndexExpr: // instantiated generic function
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			fn, _ := info.Uses[id].(*types.Func)
			return fn
		}
	}
	return nil
}

// isModulePkg reports whether the function's package was loaded from source
// (the module under analysis or a testdata stub) rather than from export data
// (the standard library). Source packages are exactly those whose path has no
// dot in its first element — the module path "eagersgd" and testdata stubs —
// plus everything below them; the standard library also has dotless paths, so
// the loader records the distinction explicitly.
func isSourcePkg(facts *Facts, fn *types.Func) bool {
	// JoinEvidence/TakesOwnership are only populated for source-loaded
	// packages; sourcePkgs tracks the full set.
	return fn != nil && fn.Pkg() != nil && facts != nil && facts.sourcePaths[fn.Pkg().Path()]
}
