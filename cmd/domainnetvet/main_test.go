package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"strings"
	"testing"

	"domainnet/internal/lint"
)

const seededFixture = "./internal/lint/testdata/src/ctxcancel"

func chdirModuleRoot(t *testing.T) {
	t.Helper()
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		t.Fatalf("go list -m: %v", err)
	}
	t.Chdir(strings.TrimSpace(string(out)))
}

func TestExitCodeOnSeededViolation(t *testing.T) {
	chdirModuleRoot(t)
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-run", "ctxcancel", seededFixture}, &stdout, &stderr); got != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", got, stderr.String())
	}
	if !strings.Contains(stdout.String(), "ctxcancel") {
		t.Fatalf("text output missing analyzer name:\n%s", stdout.String())
	}
}

func TestExitCodeCleanPackage(t *testing.T) {
	chdirModuleRoot(t)
	var stdout, stderr bytes.Buffer
	if got := run([]string{"./internal/engine"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d, want 0; output: %s%s", got, stdout.String(), stderr.String())
	}
}

// TestRunFilterScopesAnalyzers proves -run reproduces one analyzer at a
// time: the seeded ctxcancel fixture is clean under atomicsnap alone.
func TestRunFilterScopesAnalyzers(t *testing.T) {
	chdirModuleRoot(t)
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-run", "atomicsnap", seededFixture}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d, want 0; output: %s%s", got, stdout.String(), stderr.String())
	}
}

func TestJSONFlag(t *testing.T) {
	chdirModuleRoot(t)
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-json", "-run", "ctxcancel", seededFixture}, &stdout, &stderr); got != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", got, stderr.String())
	}
	var report struct {
		Count       int `json:"count"`
		Diagnostics []struct {
			Analyzer string `json:"analyzer"`
			Line     int    `json:"line"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
		t.Fatalf("-json output is not JSON: %v\n%s", err, stdout.String())
	}
	if report.Count == 0 || len(report.Diagnostics) != report.Count {
		t.Fatalf("inconsistent report: %+v", report)
	}
	for _, d := range report.Diagnostics {
		if d.Analyzer != "ctxcancel" || d.Line == 0 {
			t.Fatalf("bad diagnostic in report: %+v", d)
		}
	}
}

// TestListCatalog prints the analyzer catalog without loading any packages.
func TestListCatalog(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-list"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", got, stderr.String())
	}
	out := stdout.String()
	for _, a := range lint.All() {
		if !strings.Contains(out, a.Name()) {
			t.Fatalf("-list output missing %s:\n%s", a.Name(), out)
		}
	}
	if !strings.Contains(out, "interprocedural") {
		t.Fatalf("-list output does not mark interprocedural analyzers:\n%s", out)
	}
}

func TestListCatalogJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-list", "-json"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", got, stderr.String())
	}
	var entries []struct {
		Name            string `json:"name"`
		Doc             string `json:"doc"`
		Interprocedural bool   `json:"interprocedural"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &entries); err != nil {
		t.Fatalf("-list -json output is not JSON: %v\n%s", err, stdout.String())
	}
	if want := len(lint.All()); len(entries) != want {
		t.Fatalf("catalog has %d entries, want %d: %+v", len(entries), want, entries)
	}
	interp := map[string]bool{}
	for _, e := range entries {
		if e.Name == "" || e.Doc == "" {
			t.Fatalf("catalog entry with empty field: %+v", e)
		}
		interp[e.Name] = e.Interprocedural
	}
	if _, ok := interp["atomicsnap"]; !ok || !interp["lockorder"] || interp["atomicsnap"] {
		t.Fatalf("interprocedural flags wrong: %+v", interp)
	}
}

// TestListHonorsRunFilter scopes the catalog like a run would be scoped.
func TestListHonorsRunFilter(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-list", "-run", "lockorder,errdrop"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", got, stderr.String())
	}
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "lockorder") || !strings.HasPrefix(lines[1], "errdrop") {
		t.Fatalf("-list -run output wrong:\n%s", stdout.String())
	}
}

func TestUsageErrors(t *testing.T) {
	chdirModuleRoot(t)
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-run", "nosuchanalyzer", "./..."}, &stdout, &stderr); got != 2 {
		t.Fatalf("unknown -run analyzer: exit = %d, want 2", got)
	}
	if !strings.Contains(stderr.String(), "nosuchanalyzer") {
		t.Fatalf("stderr does not name the bad analyzer: %s", stderr.String())
	}
	stderr.Reset()
	if got := run([]string{"./does/not/exist"}, &stdout, &stderr); got != 2 {
		t.Fatalf("bad pattern: exit = %d, want 2", got)
	}
}
