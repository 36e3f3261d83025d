package lint_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"domainnet/internal/lint"
)

// moduleRoot locates the repo root so fixture patterns resolve regardless
// of the test binary's working directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	return strings.TrimSpace(string(out))
}

// loadFixture loads one fixture package by explicit directory pattern —
// the go tool prunes testdata from wildcards, so the path must be spelled.
func loadFixture(t *testing.T, dir string) []*lint.Package {
	t.Helper()
	pkgs, err := lint.Load(moduleRoot(t), "./internal/lint/testdata/src/"+dir)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s loaded no packages", dir)
	}
	return pkgs
}

var wantRe = regexp.MustCompile(`// want "([^"]*)"`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hits int
}

// checkFixture matches diagnostics against the fixture's // want "regex"
// comments by (file, line): every diagnostic needs a want, every want needs
// a diagnostic.
func checkFixture(t *testing.T, pkgs []*lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if w.file == d.File && w.line == d.Line && w.re.MatchString(d.Message) {
				w.hits++
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if w.hits == 0 {
			t.Errorf("%s:%d: no diagnostic matched %q", w.file, w.line, w.re)
		}
	}
}

func testAnalyzerFixture(t *testing.T, dir string, analyzers ...lint.Analyzer) {
	t.Helper()
	pkgs := loadFixture(t, dir)
	checkFixture(t, pkgs, lint.RunPackages(pkgs, analyzers))
}

func TestCtxCancelFixture(t *testing.T) {
	testAnalyzerFixture(t, "ctxcancel", lint.CtxCancel{})
}

func TestAtomicSnapFixture(t *testing.T) {
	testAnalyzerFixture(t, "atomicsnap", lint.AtomicSnap{})
}

func TestLockOrderFixture(t *testing.T) {
	testAnalyzerFixture(t, "lockorder", lint.LockOrder{})
}

func TestGoroLeakFixture(t *testing.T) {
	testAnalyzerFixture(t, "goroleak", lint.GoroLeak{})
}

func TestErrDropFixture(t *testing.T) {
	testAnalyzerFixture(t, "errdrop", lint.ErrDrop{})
}

// TestSummaryPropagation pins the interprocedural machinery directly: the
// goroleak fixture's helper() contains no loop, yet its summary must carry
// the Forever fact inherited from spin() through the bottom-up fixpoint —
// the property every whole-program analyzer depends on.
func TestSummaryPropagation(t *testing.T) {
	pkgs := loadFixture(t, "goroleak")
	prog := lint.BuildProgram(pkgs)
	var helper *lint.Summary
	for id, s := range prog.Summaries {
		if strings.HasSuffix(id, "goroleak.helper") {
			helper = s
		}
	}
	if helper == nil {
		t.Fatal("no summary for goroleak.helper")
	}
	if helper.Forever == nil {
		t.Fatal("helper's summary lacks the Forever fact its callee spin() should have contributed")
	}
	if chain := helper.Forever.ChainString(); !strings.Contains(chain, "goroleak.spin") {
		t.Fatalf("witness chain %q does not name the loop's true location goroleak.spin", chain)
	}
}

// TestPragmaSpanFixture is the multi-line-statement regression: the banned
// call sits two lines below its pragma, inside a statement starting on the
// line after it. The pragma must suppress the diagnostic (full statement
// span) without itself going stale (hit tracking sees the suppression).
func TestPragmaSpanFixture(t *testing.T) {
	pkgs := loadFixture(t, "pragmaspan")
	if diags := lint.RunPackages(pkgs, lint.All()); len(diags) != 0 {
		t.Fatalf("pragma over a multi-line statement leaked diagnostics:\n%v", diags)
	}
}

// TestLoadFailures drives the loader through its failure modes: each must
// surface as a readable error, never a panic or a silent empty load.
func TestLoadFailures(t *testing.T) {
	cases := []struct {
		name     string
		files    map[string]string // nil: run against the real module root
		patterns []string
		wantSub  string
	}{
		{
			name: "syntax error",
			files: map[string]string{
				"go.mod":  "module broken\n\ngo 1.24\n",
				"main.go": "package broken\nfunc f( {\n",
			},
			patterns: []string{"./..."},
			wantSub:  "syntax error",
		},
		{
			name: "type error",
			files: map[string]string{
				"go.mod":  "module broken\n\ngo 1.24\n",
				"main.go": "package broken\nvar x = undefinedIdent\n",
			},
			patterns: []string{"./..."},
			wantSub:  "undefined",
		},
		{
			name:     "pattern matches nothing",
			patterns: []string{"./does/not/exist"},
			wantSub:  "does/not/exist",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := moduleRoot(t)
			if tc.files != nil {
				dir = t.TempDir()
				for name, content := range tc.files {
					if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			pkgs, err := lint.Load(dir, tc.patterns...)
			if err == nil {
				t.Fatalf("Load succeeded with %d packages; want an error", len(pkgs))
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

// TestPragmaSuppression runs the full suite over the pragma fixture: the
// well-formed pragma swallows its violation, the wrong-analyzer pragma
// leaves its violation live (asserted by the fixture's want comment).
func TestPragmaSuppression(t *testing.T) {
	testAnalyzerFixture(t, "pragma", lint.All()...)
}

// TestPragmaMalformed asserts every malformed pragma shape is itself a
// diagnostic rather than a silent no-op.
func TestPragmaMalformed(t *testing.T) {
	pkgs := loadFixture(t, "pragmabad")
	diags := lint.RunPackages(pkgs, lint.All())
	wantSubstrings := []string{
		"malformed pragma",
		`unknown analyzer "nosuchanalyzer"`,
		"has no reason",
	}
	if len(diags) != len(wantSubstrings) {
		t.Fatalf("got %d diagnostics, want %d:\n%v", len(diags), len(wantSubstrings), diags)
	}
	for i, want := range wantSubstrings {
		if diags[i].Analyzer != "pragma" {
			t.Errorf("diagnostic %d attributed to %q, want pragma", i, diags[i].Analyzer)
		}
		if !strings.Contains(diags[i].Message, want) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, diags[i].Message, want)
		}
	}
}

func TestJSONOutput(t *testing.T) {
	diags := []lint.Diagnostic{
		{File: "a.go", Line: 3, Col: 7, Analyzer: "ctxcancel", Message: "m1"},
		{File: "b.go", Line: 9, Col: 1, Analyzer: "errdrop", Message: "m2"},
	}
	var buf bytes.Buffer
	if err := lint.WriteJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Count       int               `json:"count"`
		Diagnostics []lint.Diagnostic `json:"diagnostics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if got.Count != 2 || len(got.Diagnostics) != 2 || got.Diagnostics[1] != diags[1] {
		t.Fatalf("round-trip mismatch: %+v", got)
	}

	buf.Reset()
	if err := lint.WriteJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"diagnostics": []`) {
		t.Fatalf("clean run must emit an empty array, not null: %s", buf.String())
	}
}

func TestByNameRejectsUnknown(t *testing.T) {
	if _, err := lint.ByName("ctxcancel", "nope"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer name")
	}
	got, err := lint.ByName("atomicsnap")
	if err != nil || len(got) != 1 || got[0].Name() != "atomicsnap" {
		t.Fatalf("ByName(atomicsnap) = %v, %v", got, err)
	}
}
