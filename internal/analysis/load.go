package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	loading bool
	err     error
}

// A Loader parses and type-checks packages for the analyzers. Module-local
// packages (and, in tests, stub packages under a GOPATH-style source root)
// are loaded from source so their syntax and annotations are visible;
// standard-library imports are satisfied from compiler export data located
// with `go list -export`, which works offline and needs no third-party
// tooling.
type Loader struct {
	Fset *token.FileSet
	// ModuleRoot is the directory containing go.mod; ModulePath its module
	// path. Import paths at or below ModulePath resolve into ModuleRoot.
	ModuleRoot string
	ModulePath string
	// SrcRoots are GOPATH-style src directories (testdata/src in golden
	// tests) consulted before the module and the standard library.
	SrcRoots []string
	// Overlay maps absolute file paths to replacement contents, letting tests
	// type-check seeded mutations of real files without touching the tree.
	Overlay map[string][]byte

	// Facts accumulates module-wide annotations as packages load.
	Facts *Facts

	pkgs    map[string]*Package
	std     types.ImporterFrom
	exports map[string]string // stdlib import path -> export data file
}

// NewLoader returns a loader rooted at the given module.
func NewLoader(moduleRoot, modulePath string) *Loader {
	l := &Loader{
		Fset:       token.NewFileSet(),
		ModuleRoot: moduleRoot,
		ModulePath: modulePath,
		Facts:      NewFacts(),
		pkgs:       make(map[string]*Package),
		exports:    make(map[string]string),
	}
	l.std = importer.ForCompiler(l.Fset, "gc", l.lookupExport).(types.ImporterFrom)
	return l
}

// FindModule locates the enclosing go.mod from dir and returns the module
// root and module path.
func FindModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		d = parent
	}
}

// buildContext returns a build.Context that honors the loader's overlay and
// the process build tags (GOOS/GOARCH defaults; no extra tags, so files like
// pool_leasedebug.go stay excluded exactly as in a default build).
func (l *Loader) buildContext() *build.Context {
	ctxt := build.Default
	if len(l.Overlay) > 0 {
		ctxt.OpenFile = func(path string) (io.ReadCloser, error) {
			if src, ok := l.Overlay[path]; ok {
				return io.NopCloser(bytes.NewReader(src)), nil
			}
			return os.Open(path)
		}
	}
	return &ctxt
}

// Load type-checks the package with the given import path and returns it.
// Results are cached; import cycles and type errors are reported as errors.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		if pkg.loading {
			return nil, fmt.Errorf("analysis: import cycle through %q", path)
		}
		return pkg, pkg.err
	}
	dir, err := l.resolveDir(path)
	if err != nil {
		return nil, err
	}
	return l.loadDir(dir, path)
}

// resolveDir maps an import path to the source directory providing it.
func (l *Loader) resolveDir(path string) (string, error) {
	for _, root := range l.SrcRoots {
		dir := filepath.Join(root, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir, nil
		}
	}
	if path == l.ModulePath {
		return l.ModuleRoot, nil
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest)), nil
	}
	return "", fmt.Errorf("analysis: cannot resolve import %q", path)
}

// loadDir loads the package in dir under the given import path.
func (l *Loader) loadDir(dir, path string) (*Package, error) {
	pkg := &Package{Path: path, Dir: dir, loading: true}
	l.pkgs[path] = pkg
	defer func() { pkg.loading = false }()

	bp, err := l.buildContext().ImportDir(dir, 0)
	if err != nil {
		pkg.err = fmt.Errorf("analysis: %s: %w", path, err)
		return nil, pkg.err
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	for _, name := range names {
		filename := filepath.Join(dir, name)
		var src any
		if over, ok := l.Overlay[filename]; ok {
			src = over
		}
		file, err := parser.ParseFile(l.Fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			pkg.err = err
			return nil, err
		}
		pkg.Files = append(pkg.Files, file)
	}

	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, pkg.Files, pkg.Info)
	if err != nil {
		pkg.err = fmt.Errorf("analysis: type-checking %s: %w", path, err)
		return nil, pkg.err
	}
	pkg.Types = tpkg
	l.Facts.sourcePaths[path] = true
	l.Facts.collectFacts(pkg.Files, pkg.Info)
	return pkg, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: source roots and the module are
// consulted first, then the standard library via export data.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if _, err := l.resolveDir(path); err == nil {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// lookupExport locates compiler export data for a standard-library package by
// asking the go command, batching transitive dependencies in one invocation.
func (l *Loader) lookupExport(path string) (io.ReadCloser, error) {
	if file, ok := l.exports[path]; ok {
		return os.Open(file)
	}
	cmd := exec.Command("go", "list", "-export", "-deps",
		"-f", `{{if .Export}}{{.ImportPath}}={{.Export}}{{end}}`, path)
	cmd.Dir = l.ModuleRoot
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list -export %s: %v: %s", path, err, stderr.String())
	}
	for _, line := range strings.Split(string(out), "\n") {
		if p, file, ok := strings.Cut(strings.TrimSpace(line), "="); ok && file != "" {
			l.exports[p] = file
		}
	}
	file, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("analysis: no export data for %q", path)
	}
	return os.Open(file)
}

// Expand resolves package patterns ("./...", "./internal/partial", an import
// path below the module) into the sorted list of matching import paths.
// Directories without buildable Go files are skipped, as are testdata, hidden
// directories, and (for recursive patterns) nested modules.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			paths, err := l.walkModule(l.ModuleRoot)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			dir, err := l.patternDir(base)
			if err != nil {
				return nil, err
			}
			paths, err := l.walkModule(dir)
			if err != nil {
				return nil, err
			}
			for _, p := range paths {
				add(p)
			}
		default:
			dir, err := l.patternDir(pat)
			if err != nil {
				return nil, err
			}
			path, err := l.dirImportPath(dir)
			if err != nil {
				return nil, err
			}
			add(path)
		}
	}
	sort.Strings(out)
	return out, nil
}

// patternDir maps a non-recursive pattern to a directory.
func (l *Loader) patternDir(pat string) (string, error) {
	if pat == "." || pat == "./" {
		return l.ModuleRoot, nil
	}
	if strings.HasPrefix(pat, "./") || strings.HasPrefix(pat, "../") || filepath.IsAbs(pat) {
		return filepath.Abs(pat)
	}
	// Treat as an import path.
	return l.resolveDir(pat)
}

// dirImportPath maps a directory inside the module to its import path.
func (l *Loader) dirImportPath(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleRoot)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// walkModule collects the import paths of all buildable packages under root.
func (l *Loader) walkModule(root string) ([]string, error) {
	var out []string
	ctxt := l.buildContext()
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if p != root {
			// Skip nested modules.
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		if _, err := ctxt.ImportDir(p, 0); err != nil {
			return nil // no buildable Go files here
		}
		path, err := l.dirImportPath(p)
		if err != nil {
			return err
		}
		out = append(out, path)
		return nil
	})
	return out, err
}
