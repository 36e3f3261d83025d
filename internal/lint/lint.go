// Package lint is a zero-dependency static-analysis framework for the
// domainnet repository. It loads packages through `go list -json` plus the
// standard go/parser and go/types (no external modules — the go.mod
// zero-requires posture extends to the enforcement layer itself), runs a
// suite of project-specific analyzers over the type-checked ASTs, and
// reports position-carrying diagnostics.
//
// Diagnostics can be suppressed at a specific site with a pragma comment:
//
//	//domainnetvet:ignore <analyzer> <reason>
//
// which silences that analyzer on the pragma's own line and the line
// immediately below it. A pragma with a missing or unknown analyzer name,
// or no reason, is itself a diagnostic — suppressions must be auditable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Diagnostic is one analyzer finding anchored to a source position.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker. Run inspects a single type-checked
// package through the Pass and reports findings via Pass.Reportf.
type Analyzer interface {
	Name() string
	Doc() string
	Run(p *Pass)
}

// wholeProgram is implemented by analyzers that run once over the entire
// loaded program (Pass.Prog) instead of once per package — the shape for
// global properties like lock-order cycles, where per-package views would
// each see only half an inversion.
type wholeProgram interface {
	Analyzer
	RunWhole(p *Pass)
}

// Interprocedural reports whether the analyzer consults the whole-program
// call graph and summaries, as opposed to single-package syntax alone.
func Interprocedural(a Analyzer) bool {
	type marker interface{ Interprocedural() bool }
	if m, ok := a.(marker); ok {
		return m.Interprocedural()
	}
	return false
}

// Pass is one analyzer's view of the work: for per-package analyzers the
// loaded package plus the shared Program; for whole-program analyzers only
// Fset and Prog are set.
type Pass struct {
	Analyzer Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Prog     *Program

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name(),
		Message:  fmt.Sprintf(format, args...),
	})
}

// isNamed reports whether t (after pointer indirection) is the named type
// pkgTail.name. pkgTail is matched against the end of the defining package's
// import path, so "internal/engine" matches the real package and any fixture
// stand-in mounted under a different module prefix; generic instantiations
// such as atomic.Pointer[T] match their origin type.
func isNamed(t types.Type, pkgTail, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return pathHasTail(obj.Pkg().Path(), pkgTail)
}

func pathHasTail(path, tail string) bool {
	return path == tail || strings.HasSuffix(path, "/"+tail)
}

// calleeFunc resolves the function or method named by call.Fun, or nil for
// dynamic calls, builtins, and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}
