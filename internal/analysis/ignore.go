package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// IgnoreDirective is the suppression annotation:
//
//	//eagervet:ignore <analyzer>[,<analyzer>...] -- <reason>
//
// Placed on (or immediately above) a flagged line it silences that line's
// diagnostics for the named analyzers only; placed in the file's package doc
// it silences them for the whole file. The reason is mandatory — an ignore
// without one is itself a diagnostic — so every suppression documents why the
// invariant holds even though the analyzer cannot see it. A directive that
// suppresses nothing is a diagnostic too, so none outlives its finding.
const IgnoreDirective = "eagervet:ignore"

type ignoreScope int

const (
	scopeLine ignoreScope = iota // the directive's line (and the next, for standalone comments)
	scopeFile                    // the whole file
)

type ignore struct {
	analyzers []string
	pos       token.Pos
	file      string
	line      int  // line the directive appears on
	ownLine   bool // the comment is alone on its line (suppress the following line too)
	scope     ignoreScope
}

var ignoreRe = regexp.MustCompile(`^//\s*` + IgnoreDirective + `\b(.*)$`)

// parseIgnoreDirectives extracts every //eagervet:ignore directive from the
// files. Malformed directives (no analyzer, unknown analyzer, missing
// "-- reason") are returned as diagnostics of the pseudo-analyzer "eagervet".
func parseIgnoreDirectives(files []*ast.File, fset *token.FileSet, known map[string]bool) ([]ignore, []Diagnostic) {
	var igs []ignore
	var bad []Diagnostic
	report := func(pos token.Pos, format string, args ...any) {
		bad = append(bad, Diagnostic{Analyzer: "eagervet", Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	for _, file := range files {
		pkgLine := fset.Position(file.Package).Line
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				rest := strings.TrimSpace(m[1])
				names, reason, hasReason := strings.Cut(rest, "--")
				names = strings.TrimSpace(names)
				reason = strings.TrimSpace(reason)
				pos := fset.Position(c.Pos())
				if names == "" {
					report(c.Pos(), "%s directive names no analyzer: //%s <analyzer> -- <reason>", IgnoreDirective, IgnoreDirective)
					continue
				}
				var list []string
				ok := true
				for _, n := range strings.Split(names, ",") {
					n = strings.TrimSpace(n)
					if !known[n] {
						report(c.Pos(), "%s names unknown analyzer %q", IgnoreDirective, n)
						ok = false
						break
					}
					list = append(list, n)
				}
				if !ok {
					continue
				}
				if !hasReason || reason == "" {
					report(c.Pos(), "%s %s requires a reason: //%s %s -- <why the invariant holds here>", IgnoreDirective, names, IgnoreDirective, names)
					continue
				}
				ig := ignore{analyzers: list, pos: c.Pos(), file: pos.Filename, line: pos.Line, ownLine: pos.Column == 1 || onOwnLine(fset, file, c)}
				if pos.Line <= pkgLine {
					ig.scope = scopeFile
				}
				igs = append(igs, ig)
			}
		}
	}
	return igs, bad
}

// onOwnLine reports whether comment c shares its line with no non-comment
// code, by checking that no statement or declaration token starts on it.
func onOwnLine(fset *token.FileSet, file *ast.File, c *ast.Comment) bool {
	line := fset.Position(c.Pos()).Line
	shared := false
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil || shared {
			return false
		}
		switch n.(type) {
		case *ast.File, *ast.Comment, *ast.CommentGroup:
			return true
		}
		start := fset.Position(n.Pos()).Line
		end := fset.Position(n.End()).Line
		if line < start || line > end {
			return line >= start-1 // prune subtrees that cannot span the line
		}
		// The node spans the comment's line; only leaf-ish tokens matter, but
		// any node *starting* on the line means code shares it.
		if start == line && n.Pos() < c.Pos() {
			shared = true
			return false
		}
		return true
	})
	return !shared
}

// applyIgnores filters out the diagnostics matched by a directive and
// reports, as diagnostics of the pseudo-analyzer "eagervet", the directives
// that matched none.
func applyIgnores(diags []Diagnostic, igs []ignore, fset *token.FileSet) []Diagnostic {
	used := make([]bool, len(igs))
	kept := diags[:0]
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		suppressed := false
		for i, ig := range igs {
			if ig.file != pos.Filename || !containsName(ig.analyzers, d.Analyzer) {
				continue
			}
			if ig.scope == scopeFile || pos.Line == ig.line || (ig.ownLine && pos.Line == ig.line+1) {
				used[i], suppressed = true, true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	for i, ig := range igs {
		if !used[i] {
			kept = append(kept, Diagnostic{Analyzer: "eagervet", Pos: ig.pos,
				Message: fmt.Sprintf("%s %s suppresses no diagnostic: delete it", IgnoreDirective, strings.Join(ig.analyzers, ","))})
		}
	}
	return kept
}

func containsName(names []string, n string) bool {
	for _, x := range names {
		if x == n {
			return true
		}
	}
	return false
}
