package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// All returns the shipped analyzer suite in stable order.
func All() []Analyzer {
	return []Analyzer{
		CtxCancel{},
		AtomicSnap{},
		LockOrder{},
		GoroLeak{},
		ErrDrop{},
	}
}

// ByName resolves a subset of All() by analyzer name.
func ByName(names ...string) ([]Analyzer, error) {
	byName := make(map[string]Analyzer)
	for _, a := range All() {
		byName[a.Name()] = a
	}
	out := make([]Analyzer, 0, len(names))
	for _, name := range names {
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// knownNames is the pragma-validation name set: every shipped analyzer plus
// the reserved pragma pseudo-analyzer.
func knownNames() map[string]bool {
	known := map[string]bool{pragmaName: true}
	for _, a := range All() {
		known[a.Name()] = true
	}
	return known
}

// Run loads the packages matched by patterns (resolved in dir) and applies
// the analyzers, returning pragma-filtered diagnostics in position order.
func Run(dir string, patterns []string, analyzers []Analyzer) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return RunPackages(pkgs, analyzers), nil
}

// RunPackages applies analyzers to already-loaded packages. The
// interprocedural state — call graph and summaries — is built once and
// shared: per-package analyzers consult it through Pass.Prog, whole-program
// analyzers run a single pass over it.
func RunPackages(pkgs []*Package, analyzers []Analyzer) []Diagnostic {
	if len(pkgs) == 0 {
		return nil
	}
	prog := BuildProgram(pkgs)
	ran := make(map[string]bool, len(analyzers))
	var diags []Diagnostic
	for _, a := range analyzers {
		ran[a.Name()] = true
		if wp, ok := a.(wholeProgram); ok {
			wp.RunWhole(&Pass{Analyzer: a, Fset: prog.Fset, Prog: prog, diags: &diags})
			continue
		}
		for _, pkg := range pkgs {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Pkg,
				Info:     pkg.Info,
				Prog:     prog,
				diags:    &diags,
			})
		}
	}
	// Pragma handling is program-wide: suppression spans are collected from
	// every package, and staleness is judged against the analyzers that
	// actually ran.
	ran[pragmaName] = true
	out := filterPragmas(pkgs, diags, knownNames(), ran)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// WriteText prints one diagnostic per line in file:line:col form.
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d); err != nil {
			return err
		}
	}
	return nil
}

// jsonReport is the -json output shape: stable, machine-readable, and
// self-describing even when the run is clean.
type jsonReport struct {
	Count       int          `json:"count"`
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// WriteJSON emits the diagnostics as an indented JSON object.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonReport{Count: len(diags), Diagnostics: diags})
}
