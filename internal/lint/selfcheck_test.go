package lint_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"domainnet/internal/lint"
)

// TestRepoCleanUnderDomainnetvet is the enforcement test: the whole module
// must pass every analyzer. A failure here means a new invariant violation
// landed (fix it) or an analyzer regressed (fix that) — never loosen the
// assertion. Deliberate exceptions go through the //domainnetvet:ignore
// pragma with a written reason, next to the code they excuse.
func TestRepoCleanUnderDomainnetvet(t *testing.T) {
	diags, err := lint.Run(moduleRoot(t), []string{"./..."}, lint.All())
	if err != nil {
		t.Fatalf("domainnetvet ./...: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// exportAllowlist names exported functions and methods (Recv.Name for
// methods) that have no caller in the module's non-test code yet must stay,
// each with the reason.
var exportAllowlist = map[string]string{
	"StatusWriter.Unwrap": "net/http's ResponseController calls it through an interface",
}

// TestEveryExportHasACaller keeps library code that only tests call out of
// the non-test tree. It parses every non-test .go file of the module and of
// the benchmark module (testdata excluded) and fails on
//   - an exported top-level function or method, declared outside
//     benchmark/, whose name appears in no non-test code other than its own
//     declaration (names, not types: a method counts as called when any
//     selector of that name exists);
//   - a package under internal/ with non-test files that no non-test file
//     outside it imports.
//
// Test oracles belong in the _test.go files of their users; a name that
// must stay without a caller goes on exportAllowlist with its reason.
func TestEveryExportHasACaller(t *testing.T) {
	root := moduleRoot(t)
	type decl struct{ name, pos string }
	var decls []decl
	uses := map[string]int{}                  // identifier name → occurrences, declarations included
	declared := map[string]int{}              // function name → declarations
	importers := map[string]map[string]bool{} // import path → importing dirs
	pkgDirs := map[string]bool{}              // internal/... dirs holding non-test files
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		dir := filepath.ToSlash(filepath.Dir(rel))
		if strings.HasPrefix(dir, "internal/") {
			pkgDirs[dir] = true
		}
		for _, imp := range f.Imports {
			ip, _ := strconv.Unquote(imp.Path.Value)
			if importers[ip] == nil {
				importers[ip] = map[string]bool{}
			}
			importers[ip][dir] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		for _, dd := range f.Decls {
			fn, ok := dd.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name.Name]++
			if !fn.Name.IsExported() || strings.HasPrefix(dir, "benchmark") {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				name = recvName(fn.Recv.List[0].Type) + "." + name
			}
			decls = append(decls, decl{name, fmt.Sprintf("%s:%d", rel, fset.Position(fn.Name.Pos()).Line)})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range decls {
		short := d.name[strings.LastIndex(d.name, ".")+1:]
		if _, ok := exportAllowlist[d.name]; ok || uses[short] > declared[short] {
			continue
		}
		t.Errorf("%s: exported %s has no caller outside tests: delete it, move it into its users' _test.go, or allowlist it with a reason", d.pos, d.name)
	}
	for _, dir := range slices.Sorted(maps.Keys(pkgDirs)) {
		used := false
		for from := range importers[path.Join("domainnet", dir)] {
			used = used || from != dir
		}
		if !used {
			t.Errorf("package %s: no non-test file outside it imports it: move it into test files or delete it", dir)
		}
	}
}

// recvName returns the type name of a method receiver, through pointers and
// type parameters.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
