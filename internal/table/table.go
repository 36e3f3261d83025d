// Package table models relational tables as they occur in data lakes:
// named collections of columns holding string-typed cell values.
//
// Data lakes are schema-light: attribute names may be missing, ambiguous or
// wrong, and cell values are the only reliable signal (paper §3.1). The
// Table type therefore stores values as strings and leaves all semantic
// interpretation to higher layers.
package table

import (
	"encoding/binary"
	"fmt"
	"strings"
	"unicode/utf8"
)

// Column is a single attribute of a table: a name (possibly empty or
// meaningless, as is common in data lakes) and the cell values in row order.
type Column struct {
	Name   string
	Values []string
}

// Table is a named collection of columns. Columns may have different
// lengths; a data lake loader never assumes rectangular data.
type Table struct {
	Name    string
	Columns []Column
}

// New returns a table with the given name and no columns.
func New(name string) *Table {
	return &Table{Name: name}
}

// AddColumn appends a column built from name and values and returns the
// receiver for chaining.
func (t *Table) AddColumn(name string, values ...string) *Table {
	t.Columns = append(t.Columns, Column{Name: name, Values: values})
	return t
}

// NumColumns reports the number of columns (attributes) in the table.
func (t *Table) NumColumns() int { return len(t.Columns) }

// NumRows reports the length of the longest column. For rectangular tables
// this is the row count.
func (t *Table) NumRows() int {
	n := 0
	for i := range t.Columns {
		if len(t.Columns[i].Values) > n {
			n = len(t.Columns[i].Values)
		}
	}
	return n
}

// Column returns the i-th column. It panics if i is out of range, mirroring
// slice indexing.
func (t *Table) Column(i int) *Column { return &t.Columns[i] }

// Validate reports an error when the table is structurally unusable:
// empty name, no columns, or a column with no values at all. Ragged
// (non-rectangular) tables are permitted.
func (t *Table) Validate() error {
	if strings.TrimSpace(t.Name) == "" {
		return fmt.Errorf("table: empty table name")
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("table %q: no columns", t.Name)
	}
	for i := range t.Columns {
		if len(t.Columns[i].Values) == 0 {
			return fmt.Errorf("table %q: column %d (%q) has no values", t.Name, i, t.Columns[i].Name)
		}
	}
	return nil
}

// AttributeID identifies a column globally within a lake as "table.column".
// When the column name is empty the positional form "table.col<i>" is used,
// which keeps IDs unique and stable for metadata-poor lakes.
func AttributeID(tableName string, colIndex int, colName string) string {
	if strings.TrimSpace(colName) == "" {
		return fmt.Sprintf("%s.col%d", tableName, colIndex)
	}
	return tableName + "." + colName
}

// Normalize canonicalizes a cell value the way DomainNet compares values
// across the lake (paper §3.2): leading/trailing white-space is removed and
// the value is upper-cased so that "jaguar", " Jaguar " and "JAGUAR" denote
// the same value node.
func Normalize(v string) string {
	return strings.ToUpper(strings.TrimSpace(v))
}

// AppendNormalized appends Normalize(v) to dst and returns the extended
// slice; a missing cell appends nothing. It is the one normalization every
// ingest path runs. ASCII cells are trimmed and upper-cased in dst itself,
// so normalizing into a reused buffer allocates nothing; other input goes
// through Normalize, which owns the Unicode rules. The copy is upper-cased
// eight bytes at a time: one test per word finds a byte of 0x80 or above
// (the fallback), and a word-parallel range test finds the bytes a–z and
// clears their 0x20 bit; the last len%8 bytes go one at a time.
func AppendNormalized(dst []byte, v string) []byte {
	for len(v) > 0 && asciiSpace(v[0]) {
		v = v[1:]
	}
	for len(v) > 0 && asciiSpace(v[len(v)-1]) {
		v = v[:len(v)-1]
	}
	start := len(dst)
	dst = append(dst, v...)
	b := dst[start:]
	for len(b) >= 8 {
		w := binary.LittleEndian.Uint64(b)
		if w&highBits != 0 {
			return append(dst[:start], Normalize(v)...)
		}
		// With every byte below 0x80, adding 0x80-c to each byte sets its
		// high bit exactly when the byte is at least c, and never carries.
		lower := (w + lanes*(0x80-'a')) &^ (w + lanes*(0x80-'z'-1)) & highBits
		binary.LittleEndian.PutUint64(b, w^lower>>2)
		b = b[8:]
	}
	for i, c := range b {
		if c >= utf8.RuneSelf {
			return append(dst[:start], Normalize(v)...)
		}
		if c-'a' < 26 {
			b[i] = c - ('a' - 'A')
		}
	}
	return dst
}

// lanes has a one in every byte; highBits has every byte's high bit.
const (
	lanes    = 0x0101_0101_0101_0101
	highBits = 0x80 * lanes
)

// asciiSpace reports the ASCII bytes strings.TrimSpace removes.
func asciiSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// IsMissing reports whether a normalized value should be treated as an empty
// cell and skipped during graph construction. Only the truly empty string is
// treated as missing: explicit null markers such as "NA", "-" or "." are
// genuine data values in a lake — indeed the paper shows "." is one of the
// strongest homographs in TUS — so they are kept. It takes bytes too, for
// values normalized with AppendNormalized.
func IsMissing[T string | []byte](norm T) bool { return len(norm) == 0 }
