package analysis

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The mutation tests seed known invariant violations into real source files
// through the loader's overlay — the tree on disk is never touched — and
// require the suite to catch them. They pin the acceptance criteria from the
// analyzers' introduction: deleting a PutVector in internal/collectives must
// trip leasecheck, and hardcoding a tag literal in internal/partial must trip
// tagcheck.

// mutate loads the file, applies old->new (which must change it), and returns
// an overlay for it.
func mutate(t *testing.T, path, old, new string) map[string][]byte {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(src, []byte(old)) {
		t.Fatalf("%s no longer contains %q; update the mutation test", path, old)
	}
	return map[string][]byte{path: bytes.Replace(src, []byte(old), []byte(new), 1)}
}

// runOn loads one module package under the overlay and returns the suite's
// diagnostics for it.
func runOn(t *testing.T, overlay map[string][]byte, pkgPath string) []Diagnostic {
	t.Helper()
	l := newTestLoader(t, overlay)
	pkg, err := l.Load(pkgPath)
	if err != nil {
		t.Fatalf("load %s: %v", pkgPath, err)
	}
	diags, err := Run(pkg, All(), l.Fset, l.Facts)
	if err != nil {
		t.Fatalf("run %s: %v", pkgPath, err)
	}
	return diags
}

func requireFinding(t *testing.T, diags []Diagnostic, analyzer, substr string) {
	t.Helper()
	for _, d := range diags {
		if d.Analyzer == analyzer && strings.Contains(d.Message, substr) {
			return
		}
	}
	t.Fatalf("expected a %s diagnostic containing %q; got %d diagnostics: %v", analyzer, substr, len(diags), diags)
}

// TestMutationDeletedPutVector deletes the barrier token's deferred release
// in internal/collectives; leasecheck must report the leak.
func TestMutationDeletedPutVector(t *testing.T) {
	l := newTestLoader(t, nil)
	file := filepath.Join(l.ModuleRoot, "internal", "collectives", "collectives.go")
	overlay := mutate(t, file,
		"defer tensor.PutVector(token)",
		"_ = token")
	diags := runOn(t, overlay, l.ModulePath+"/internal/collectives")
	requireFinding(t, diags, "leasecheck", `pool lease "token"`)
}

// TestMutationHardcodedTag replaces the activation listener's named tag
// derivation in internal/partial with a raw literal; tagcheck must flag it.
func TestMutationHardcodedTag(t *testing.T) {
	l := newTestLoader(t, nil)
	file := filepath.Join(l.ModuleRoot, "internal", "partial", "partial.go")
	overlay := mutate(t, file,
		"a.comm.Recv(comm.AnySource, DefaultBaseTag+tagActivation)",
		"a.comm.Recv(comm.AnySource, 31337)")
	diags := runOn(t, overlay, l.ModulePath+"/internal/partial")
	requireFinding(t, diags, "tagcheck", "raw literal tag")
}

// TestMutationContextRoot plants a context.Background() root in library code;
// ctxcheck must flag it. (internal/partial already imports context, so the
// mutation stays compilable.)
func TestMutationContextRoot(t *testing.T) {
	l := newTestLoader(t, nil)
	file := filepath.Join(l.ModuleRoot, "internal", "partial", "partial.go")
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the shim's ignore directive so the existing root is exposed: the
	// suppression, not the analyzer, is what keeps the tree clean.
	const directive = "//eagervet:ignore ctxcheck"
	if !bytes.Contains(src, []byte(directive)) {
		t.Fatalf("%s no longer carries the ctxcheck suppression; update the mutation test", file)
	}
	mutated := bytes.Replace(src, []byte(directive+" "), []byte("// "), 1)
	// The replacement leaves the rest of the comment line behind; cut the
	// stale "-- reason" text too by neutralizing the whole line marker.
	diags := runOn(t, map[string][]byte{file: mutated}, l.ModulePath+"/internal/partial")
	requireFinding(t, diags, "ctxcheck", "context.Background")
}

// TestMutationListenerRecv strips the suppression over internal/partial's
// activation listener, whose loop-resident Recv has a RecvTimeout sibling;
// ctxcheck must flag the receive.
func TestMutationListenerRecv(t *testing.T) {
	l := newTestLoader(t, nil)
	file := filepath.Join(l.ModuleRoot, "internal", "partial", "partial.go")
	overlay := mutate(t, file,
		"//eagervet:ignore ctxcheck -- the listener lives",
		"// the listener lives")
	diags := runOn(t, overlay, l.ModulePath+"/internal/partial")
	requireFinding(t, diags, "ctxcheck", "use RecvTimeout")
}

// TestMutationDetachedGoroutine plants a goroutine with no join plumbing
// (before the constructor's WaitGroup.Add, so the Add-before-go idiom does
// not cover it) in internal/comm; lifecyclecheck must flag the launch.
func TestMutationDetachedGoroutine(t *testing.T) {
	l := newTestLoader(t, nil)
	file := filepath.Join(l.ModuleRoot, "internal", "comm", "comm.go")
	overlay := mutate(t, file,
		"c.cond = sync.NewCond(&c.mu)",
		"c.cond = sync.NewCond(&c.mu)\n\tgo func() { for i := 0; i >= 0; i++ { _ = i } }()")
	diags := runOn(t, overlay, l.ModulePath+"/internal/comm")
	requireFinding(t, diags, "lifecyclecheck", "not joinable")
}
