package lake

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"domainnet/internal/table"
)

// FuzzIntern holds Intern to table.Normalize. Intern normalizes with
// table.AppendNormalized, as ingest's workers and the tripartite builder's
// row lookups do: its ASCII fast path must agree byte for byte, and
// everything else goes through Normalize itself.
//
//	go test -fuzz=FuzzIntern -fuzztime=10s -run '^$' ./internal/lake
func FuzzIntern(f *testing.F) {
	for _, s := range []string{"", " ", "a", " Jaguar ", "\tpanda\n", "ÉCLAIR", "éclair", "straße",
		" x ", "\u0085x", "\xff", "a\xffb", "a b", "\v\f\r", "MiXeD 42 ", "ǅ"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		s := NewSymbols()
		s.Add("SEEDED") // Intern must also resolve against existing entries
		id, ok := s.Intern(raw)
		want := table.Normalize(raw)
		if ok == table.IsMissing(want) {
			t.Fatalf("Intern(%q) ok = %v, Normalize gives %q", raw, ok, want)
		}
		if !ok {
			return
		}
		if got := s.String(id); got != want {
			t.Fatalf("Intern(%q) = %q, Normalize gives %q", raw, got, want)
		}
		if again, _ := s.Intern(raw); again != id {
			t.Fatalf("re-interning %q gave ID %d, then %d", raw, id, again)
		}
		if byValue, found := s.Lookup([]byte(want)); !found || byValue != id {
			t.Fatalf("Lookup(%q) = %d, %v; want %d", want, byValue, found, id)
		}
	})
}

func TestInternExistingAllocatesNothing(t *testing.T) {
	s := NewSymbols()
	s.Intern("jaguar")
	s.Add("PUMA")
	for _, raw := range []string{"jaguar", "  Jaguar\t", "JAGUAR"} {
		if n := testing.AllocsPerRun(100, func() { s.Intern(raw) }); n != 0 {
			t.Errorf("Intern(%q) of an interned value: %v allocations, want 0", raw, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.Add("PUMA") }); n != 0 {
		t.Errorf("Add of an interned value: %v allocations, want 0", n)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
}

func TestSymbolIDsFollowFirstAppearance(t *testing.T) {
	l := New("order")
	l.MustAdd(table.New("t1").
		AddColumn("a", "b", "a ", "c").
		AddColumn("b", "d", "A"))
	l.MustAdd(table.New("t2").AddColumn("x", "e", "", "b"))
	attrs := l.Attributes()
	syms := l.Symbols()
	var got []string
	for id := 0; id < syms.Len(); id++ {
		got = append(got, syms.String(uint32(id)))
	}
	// Table, then column, then row.
	if want := []string{"B", "A", "C", "D", "E"}; !reflect.DeepEqual(got, want) {
		t.Errorf("symbols = %v, want %v", got, want)
	}
	for i := range attrs {
		if SymbolsOf(attrs[i:i+1]) != syms {
			t.Errorf("attribute %s does not reach the lake's symbols", attrs[i].ID)
		}
	}
	if ids := attrs[1].IDs(); !reflect.DeepEqual(ids, []uint32{1, 3}) {
		t.Errorf("t1.b IDs = %v, want ascending [1 3]", ids)
	}
}

func TestNewAttributesMergesRepeats(t *testing.T) {
	attrs := NewAttributes([]Spec{{ID: "a", Values: []string{"X", "Y", "X"}, Freqs: []int{1, 2, 3}}})
	if got := attrs[0].Values(); !reflect.DeepEqual(got, []string{"X", "Y"}) {
		t.Fatalf("values = %v", got)
	}
	if f := attrs[0].Freqs(); f[0] != 4 || f[1] != 2 {
		t.Errorf("freqs = %v, want [4 2]", f)
	}
}

func TestSymbolsOfRejectsMixedTables(t *testing.T) {
	a := NewAttributes([]Spec{{ID: "a", Values: []string{"X"}}})
	b := NewAttributes([]Spec{{ID: "b", Values: []string{"X"}}})
	defer func() {
		if recover() == nil {
			t.Error("mixing symbol tables did not panic")
		}
	}()
	SymbolsOf(append(a, b...))
}

func TestLoadDirReportsFirstBadFileInDirectoryOrder(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{"a.csv": "x\n1\n", "b.csv": "", "c.csv": "y\n", "d.csv": "z\n2\n"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for range 5 { // files parse in parallel; the reported one must not vary
		_, err := LoadDir(dir)
		if err == nil || !strings.Contains(err.Error(), "loading b.csv") {
			t.Fatalf("err = %v, want the first bad file b.csv", err)
		}
	}
}

func TestLoadDirKeepsDirectoryOrder(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"c", "a", "b"} {
		if err := os.WriteFile(filepath.Join(dir, name+".csv"), []byte("v\n"+name+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, tb := range l.Tables() {
		names = append(names, tb.Name)
	}
	if !reflect.DeepEqual(names, []string{"a", "b", "c"}) {
		t.Errorf("tables = %v, want directory order", names)
	}
}

// adopt adopts strs with AdoptSymbols.
func adopt(strs ...string) (*Symbols, error) {
	i := 0
	return AdoptSymbols(len(strs), func() string { i++; return strs[i-1] })
}

// TestAdoptedSymbols: AdoptSymbols gives the i-th string the ID i and
// resolves it through the index; Intern of an adopted value allocates
// nothing, a new value gets the next ID, and a repeat is rejected.
func TestAdoptedSymbols(t *testing.T) {
	s, err := adopt("JAGUAR", "PUMA", "ÖLFASS")
	if err != nil {
		t.Fatal(err)
	}
	if id, ok := s.Intern(" puma "); !ok || id != 1 {
		t.Errorf("Intern(puma) = %d, %v; want 1", id, ok)
	}
	for _, raw := range []string{"jaguar", "PUMA", " Jaguar"} {
		if n := testing.AllocsPerRun(100, func() { s.Intern(raw) }); n != 0 {
			t.Errorf("Intern(%q) of an adopted value: %v allocations, want 0", raw, n)
		}
	}
	if id, ok := s.Lookup([]byte("ÖLFASS")); !ok || id != 2 {
		t.Errorf("Lookup(ÖLFASS) = %d, %v; want 2", id, ok)
	}
	if id, _ := s.Intern("lion"); id != 3 || s.String(3) != "LION" || s.Add("LION") != 3 {
		t.Errorf("a new value got ID %d, want 3", id)
	}
	if _, err := adopt("PUMA", "JAGUAR", "PUMA"); err == nil {
		t.Error("AdoptSymbols accepted a repeat")
	}
}
