package persist

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// rawDecode matches the encoding/binary calls that read an integer out of
// bytes. In the decode packages they belong inside the checked accessors.
var rawDecode = regexp.MustCompile(`^binary\.(Uvarint|Varint|(Little|Big)Endian\.Uint(16|32|64))$`)

// decodeAccessors names the functions allowed to call rawDecode, and which
// call each may make: the Reader's varint cursor, the snapshot trailer CRC,
// the chunk header and the WAL frame parser.
var decodeAccessors = map[string]string{
	"persist.Reader.Uvarint": "binary.Uvarint",
	"persist.Unmarshal":      "binary.LittleEndian.Uint32",
	"persist.readFrame":      "binary.LittleEndian.Uint32",
	"wal.frameAt":            "binary.LittleEndian.Uint32",
}

// TestDecodePackagesUseAccessors holds the packages that decode bytes from
// disk and the wire to errors-not-panics by construction: no panic, integers
// read only through the checked accessors, and no varint used as an index,
// a slice bound or a make size — counts and lengths go through
// Reader.Length, which bounds them by the bytes left.
func TestDecodePackagesUseAccessors(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{".", "../wal"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if imp.Path.Value == `"encoding/binary"` && imp.Name != nil {
					t.Errorf("%s: import encoding/binary under its own name", fset.Position(imp.Pos()))
				}
			}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					decodeViolations(f.Name.Name, fd, func(pos token.Pos, msg string) {
						t.Errorf("%s: %s", fset.Position(pos), msg)
					})
				}
			}
		}
	}
}

// decodeViolations reports what fd breaks of the rules above.
func decodeViolations(pkg string, fd *ast.FuncDecl, report func(token.Pos, string)) {
	name := pkg + "." + fd.Name.Name
	if fd.Recv != nil {
		recv := fd.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		name = pkg + "." + types.ExprString(recv) + "." + fd.Name.Name
	}
	// Pass 1: panics, raw integer reads, and the locals a varint lands in.
	varints := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
				report(n.Pos(), "panic in a decode package; corrupt input must yield an error")
			}
			if call := types.ExprString(n.Fun); rawDecode.MatchString(call) && decodeAccessors[name] != call {
				report(n.Pos(), call+" outside the checked accessors; read through persist.Reader or wal.frameAt")
			}
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && isVarint(n.Rhs[0]) {
				if id, ok := n.Lhs[0].(*ast.Ident); ok {
					varints[id.Name] = true
				}
			}
		}
		return true
	})
	// Pass 2: no varint, read inline or through a local, sizes anything.
	bound := func(e ast.Expr) {
		if e != nil && (isVarint(e) || mentions(e, varints)) {
			report(e.Pos(), "a varint used as an index, slice bound or make size; bound it with Reader.Length")
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			bound(n.Index)
		case *ast.SliceExpr:
			bound(n.Low)
			bound(n.High)
			bound(n.Max)
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" {
				for _, arg := range n.Args[1:] {
					bound(arg)
				}
			}
		}
		return true
	})
}

// conversions are the integer types a varint may be converted through on
// its way to a bound.
var conversions = map[string]bool{"int": true, "int32": true, "int64": true, "uint": true, "uint32": true, "uint64": true}

// isVarint reports whether e, under parentheses and integer conversions, is
// a call of a function or method named Uvarint.
func isVarint(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
			continue
		case *ast.CallExpr:
			switch fn := x.Fun.(type) {
			case *ast.SelectorExpr:
				return fn.Sel.Name == "Uvarint"
			case *ast.Ident:
				if conversions[fn.Name] && len(x.Args) == 1 {
					e = x.Args[0]
					continue
				}
				return fn.Name == "Uvarint"
			}
		}
		return false
	}
}

// mentions reports whether e reads one of the named locals; a field
// selector's name is not a local.
func mentions(e ast.Expr, names map[string]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			found = found || mentions(n.X, names)
			return false
		case *ast.Ident:
			found = found || names[n.Name]
		}
		return !found
	})
	return found
}
