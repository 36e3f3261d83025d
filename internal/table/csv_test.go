package table

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReadCSVBasic(t *testing.T) {
	in := "name,city\nAlice,Boston\nBob,Denver\n"
	tab, err := ReadCSV("people", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumColumns() != 2 || tab.NumRows() != 2 {
		t.Fatalf("shape %dx%d, want 2x2", tab.NumColumns(), tab.NumRows())
	}
	if tab.Columns[1].Values[0] != "Boston" {
		t.Errorf("cell = %q", tab.Columns[1].Values[0])
	}
}

func TestReadCSVRaggedRows(t *testing.T) {
	in := "a,b\n1,2,3\n4\n"
	tab, err := ReadCSV("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumColumns() != 3 {
		t.Fatalf("columns = %d, want 3 (widened by long row)", tab.NumColumns())
	}
	if got := tab.Column(2).Values; got[0] != "3" || got[1] != "" {
		t.Errorf("widened column = %v", got)
	}
	if got := tab.Column(0).Values; got[1] != "4" {
		t.Errorf("short row cell = %q, want 4", got[1])
	}
}

func TestReadCSVEmptyHeaderNames(t *testing.T) {
	in := ",b,\n1,2,3\n"
	tab, err := ReadCSV("t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tab.Columns[0].Name != "col0" || tab.Columns[2].Name != "col2" {
		t.Errorf("positional names: %q %q", tab.Columns[0].Name, tab.Columns[2].Name)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("t", strings.NewReader("")); err == nil {
		t.Error("empty csv should error")
	}
	if _, err := ReadCSV("t", strings.NewReader("a,b\n")); err == nil {
		t.Error("header-only csv should error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := New("rt").
		AddColumn("a", "1", "2").
		AddColumn("b", "with,comma", `with "quote"`)
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("rt", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumColumns() != 2 || back.NumRows() != 2 {
		t.Fatalf("shape %dx%d", back.NumColumns(), back.NumRows())
	}
	for c := range orig.Columns {
		for r := range orig.Columns[c].Values {
			if got, want := back.Columns[c].Values[r], orig.Columns[c].Values[r]; got != want {
				t.Errorf("cell (%d,%d) = %q, want %q", r, c, got, want)
			}
		}
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "x.csv")
	orig := New("x").AddColumn("a", "1")
	if err := orig.WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "x" {
		t.Errorf("name = %q, want x (from file base)", back.Name)
	}
}

func TestWriteCSVPadsRaggedColumns(t *testing.T) {
	tab := New("t").AddColumn("a", "1", "2").AddColumn("b", "x")
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,x\n2,\n"
	if buf.String() != want {
		t.Errorf("got %q, want %q", buf.String(), want)
	}
}

func TestReadCSVFileMissing(t *testing.T) {
	if _, err := ReadCSVFile(filepath.Join(os.TempDir(), "definitely-missing-9x7.csv")); err == nil {
		t.Error("missing file should error")
	}
}

// referenceReadCSV is ReadCSV as encoding/csv defines it (lazy quotes, any
// field count per record): the reference FuzzReadCSV holds the scanner to.
func referenceReadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // tolerate ragged rows
	cr.LazyQuotes = true
	cr.ReuseRecord = true // fields are copied into the columns below

	header, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("table %q: empty csv", name)
	}
	if err != nil {
		return nil, fmt.Errorf("table %q: reading header: %w", name, err)
	}

	t := New(name)
	for i, h := range header {
		colName := strings.TrimSpace(h)
		if colName == "" {
			colName = fmt.Sprintf("col%d", i)
		}
		t.Columns = append(t.Columns, Column{Name: colName})
	}

	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("table %q: reading row: %w", name, err)
		}
		for len(t.Columns) < len(rec) {
			idx := len(t.Columns)
			pad := make([]string, t.NumRows())
			t.Columns = append(t.Columns, Column{Name: fmt.Sprintf("col%d", idx), Values: pad})
		}
		for c := range t.Columns {
			v := ""
			if c < len(rec) {
				v = rec[c]
			}
			t.Columns[c].Values = append(t.Columns[c].Values, v)
		}
	}
	if t.NumRows() == 0 {
		return nil, fmt.Errorf("table %q: csv has a header but no data rows", name)
	}
	return t, nil
}

// FuzzReadCSV holds ReadCSV to encoding/csv: the same inputs fail, and the
// rest give the same column names and cells.
//
//	go test -fuzz=FuzzReadCSV -fuzztime=10s -run '^$' ./internal/table
func FuzzReadCSV(f *testing.F) {
	for _, s := range []string{
		// quotes
		"a,b\n\"x\"\"y\",z\n", "a\n\"\"\n", "a\n\"x\"y\"\n", "a,b\n\"x\"\"\",\"\"\"\"\n",
		"a\n\"x\" \"y\n", "a\nx\"y,\"z\n", "a\nb\"", "a\n\"b", "a\n\"", "\"\n\"", "a,b\n\",\"\n",
		"a\n\"b\n\nc\"\n", "a\n\"\"\"\"\n", "a\n\"x\"\"\n",
		// line endings
		"a,b\r\n1,2\r\n", "a\r\n\"x\r\ny\"\r\n", "a\n\"x\ny\"\n", "a,b\n1\r2,3\n", "a\n1\r",
		"a\n\"1\r", "a\n1\r\r", "a\n\r", "a\n\"x\r\n", "\r\na\n1\n", "a\n1\r\n\r\n2",
		// empty and blank lines
		"\n\na,b\n\n1,2\n\n\n3,4", "a\n \n1\n", "a\n\n", ",\n,\n",
		// ragged rows, header only, empty input
		"a,b\n1,2,3\n4\n", "a\n1,2\n3,4,5,6\n", "a,b\n", "a,b", "", "\n", " , b ,\n1,2,3\n",
		// NUL and invalid UTF-8
		"a\x00b\n\x00,\"\x00\"\n", "\xff,\xfe\n\"\xff\"\"\",\xc3\n", "é,ñ\n\"ü\",\xe2\x82\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		got, err := ReadCSV("f", strings.NewReader(in))
		want, wantErr := referenceReadCSV("f", strings.NewReader(in))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadCSV(%q) error = %v, reference %v", in, err, wantErr)
		}
		if err != nil {
			return
		}
		if len(got.Columns) != len(want.Columns) {
			t.Fatalf("ReadCSV(%q): %d columns, reference %d", in, len(got.Columns), len(want.Columns))
		}
		for c := range want.Columns {
			g, w := got.Columns[c], want.Columns[c]
			if g.Name != w.Name || len(g.Values) != len(w.Values) {
				t.Fatalf("ReadCSV(%q) column %d = %q with %d cells, reference %q with %d",
					in, c, g.Name, len(g.Values), w.Name, len(w.Values))
			}
			for r := range w.Values {
				if g.Values[r] != w.Values[r] {
					t.Fatalf("ReadCSV(%q) cell (%d,%d) = %q, reference %q", in, r, c, g.Values[r], w.Values[r])
				}
			}
		}
	})
}

// TestReadCSVOwnsItsInput overwrites the caller's buffer after the read:
// cells and column names are cut from ReadCSV's own copy, never from it.
func TestReadCSVOwnsItsInput(t *testing.T) {
	buf := []byte("name,\"ci\"\"ty\"\nAlice,Boston\n\"Bob\",\"Den\r\nver\"\n")
	tab, err := ReadCSV("t", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"name", "Alice", "Bob"}, {`ci"ty`, "Boston", "Den\nver"}}
	for i := range buf {
		buf[i] = 'X'
	}
	for c, col := range want {
		if got := tab.Columns[c].Name; got != col[0] {
			t.Errorf("column %d name = %q, want %q", c, got, col[0])
		}
		for r, v := range col[1:] {
			if got := tab.Columns[c].Values[r]; got != v {
				t.Errorf("cell (%d,%d) = %q, want %q", r, c, got, v)
			}
		}
	}
}
