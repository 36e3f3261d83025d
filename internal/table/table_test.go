package table

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAddColumnAndShape(t *testing.T) {
	tab := New("t").
		AddColumn("a", "1", "2", "3").
		AddColumn("b", "x", "y")
	if got := tab.NumColumns(); got != 2 {
		t.Errorf("NumColumns = %d, want 2", got)
	}
	if got := tab.NumRows(); got != 3 {
		t.Errorf("NumRows = %d, want 3 (longest column)", got)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		tab  *Table
		ok   bool
	}{
		{"valid", New("t").AddColumn("a", "1"), true},
		{"empty name", New("  ").AddColumn("a", "1"), false},
		{"no columns", New("t"), false},
		{"empty column", New("t").AddColumn("a"), false},
	}
	for _, c := range cases {
		err := c.tab.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestAttributeID(t *testing.T) {
	if got := AttributeID("t", 0, "name"); got != "t.name" {
		t.Errorf("got %q", got)
	}
	if got := AttributeID("t", 3, "  "); got != "t.col3" {
		t.Errorf("positional fallback: got %q", got)
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		" jaguar ":  "JAGUAR",
		"JAGUAR":    "JAGUAR",
		"\tPuma\n":  "PUMA",
		"":          "",
		"  ":        "",
		"a b":       "A B",
		"Ärger":     "ÄRGER",
		"123-x":     "123-X",
		"Not Avail": "NOT AVAIL",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	f := func(s string) bool { return Normalize(Normalize(s)) == Normalize(s) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizeNeverPadded(t *testing.T) {
	f := func(s string) bool {
		n := Normalize(s)
		return n == strings.TrimSpace(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsMissing(t *testing.T) {
	if !IsMissing("") {
		t.Error("empty string should be missing")
	}
	// Explicit null markers are data values in a lake (the paper finds "."
	// to be a strong homograph), so they are NOT missing.
	for _, v := range []string{".", "NA", "-", "NULL", "0"} {
		if IsMissing(v) {
			t.Errorf("%q should not be treated as missing", v)
		}
	}
}

// TestAppendNormalizedLanes puts every byte 0x00–0x80 at every offset 0–16
// of a cell, so each byte meets each lane of the word loop and the
// byte-at-a-time tail. The cell's other bytes sit at the edges of the a–z
// range, it is padded with spaces, and the result is appended to a
// non-empty dst whose prefix must survive; it must equal Normalize.
func TestAppendNormalizedLanes(t *testing.T) {
	const filler = "`az{@AZ["
	dst := []byte("prefix")
	for c := 0; c <= 0x80; c++ {
		for off := 0; off <= 16; off++ {
			for tail := 0; tail <= 9; tail += 3 {
				cell := make([]byte, 0, off+1+tail)
				for i := range off + 1 + tail {
					cell = append(cell, filler[(i+c)%len(filler)])
				}
				cell[off] = byte(c)
				v := "  " + string(cell) + " "
				got := AppendNormalized(dst, v)
				if want := "prefix" + Normalize(v); string(got) != want {
					t.Fatalf("AppendNormalized(%q, %q) = %q, want %q", dst, v, got, want)
				}
			}
		}
	}
}

// FuzzAppendNormalized holds AppendNormalized to Normalize on any cell
// appended to any prefix, which must survive; the seeds put a non-ASCII or
// lower-case byte in the first word, the last word and the tail.
//
//	go test -fuzz=FuzzAppendNormalized -fuzztime=10s -run '^$' ./internal/table
func FuzzAppendNormalized(f *testing.F) {
	for _, s := range []string{"", " a ", "abcdefgh", "ABCDEFGHijklmnop", " `az{@AZ[`az{@AZ[x ",
		"\xffbcdefgh", "abcdefg\x80", "abcdefghijklmnopq\xc3\xa9", "\t0123456789:;<=>?@[\\]^_`{|}~\x7f\n"} {
		f.Add("prefix", s)
	}
	f.Fuzz(func(t *testing.T, prefix, cell string) {
		if got, want := string(AppendNormalized([]byte(prefix), cell)), prefix+Normalize(cell); got != want {
			t.Fatalf("AppendNormalized(%q, %q) = %q, want %q", prefix, cell, got, want)
		}
	})
}
