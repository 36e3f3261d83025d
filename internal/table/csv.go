package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// ReadCSV parses a table from r. The first record is taken as the header row
// (attribute names); subsequent records are data rows. Records may have
// varying field counts — short rows are padded with empty cells and long
// rows extend the column set with positional names, because open-data CSVs
// are frequently ragged.
//
// The syntax is encoding/csv's with lazy quotes: CRLF reads as LF, a CR
// just before EOF is dropped, empty lines are skipped, a bare quote is kept
// and an unterminated quote runs to EOF. r is read whole into one string
// (presized when r is a file), and every cell that needs no rewriting — no
// "" escape, no CRLF inside quotes — is a substring of it, not a copy.
func ReadCSV(name string, r io.Reader) (*Table, error) {
	var b strings.Builder
	if f, ok := r.(*os.File); ok {
		if info, err := f.Stat(); err == nil {
			b.Grow(int(info.Size()))
		}
		r = struct{ io.Reader }{f} // File.WriteTo would copy through a new buffer
	}
	buf := readBufs.Get().(*[32 << 10]byte)
	_, err := io.CopyBuffer(&b, r, buf[:])
	readBufs.Put(buf)
	if err != nil {
		return nil, fmt.Errorf("table %q: reading csv: %w", name, err)
	}
	sc := scanner{s: b.String()}
	header, ok := sc.record(nil)
	if !ok {
		return nil, fmt.Errorf("table %q: empty csv", name)
	}

	t := New(name)
	t.Columns = make([]Column, len(header))
	for i, h := range header {
		colName := strings.TrimSpace(h)
		if colName == "" {
			colName = fmt.Sprintf("col%d", i)
		}
		t.Columns[i].Name = colName
	}
	// There are at most as many data rows as newlines. Presizing by them
	// only when that costs no more cells than the input has bytes holds for
	// every rectangular file and bounds the allocation by the input.
	if n := strings.Count(sc.s, "\n"); len(header)*n <= len(sc.s) {
		cells := make([]string, len(header)*n)
		for c := range t.Columns {
			t.Columns[c].Values = cells[c*n : c*n : (c+1)*n]
		}
	}

	rec := header
	for {
		if rec, ok = sc.record(rec); !ok {
			break
		}
		for len(t.Columns) < len(rec) {
			// Row wider than header: add positional columns padded to the
			// current row count so earlier rows read as empty cells.
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

// readBufs holds the buffers ReadCSV copies its input through.
var readBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// ReadCSVFile parses the CSV file at path; the table name is the file's base
// name without extension.
func ReadCSVFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return ReadCSV(name, f)
}

// scanner cuts CSV records out of one string, line by line.
type scanner struct {
	s   string
	pos int // start of the next line
}

// line returns the next line as s[start:end], without its LF or CRLF (or a
// CR before EOF); nl reports whether an LF ended it, ok whether one was left.
func (sc *scanner) line() (start, end int, nl, ok bool) {
	start, end = sc.pos, len(sc.s)
	if start == end {
		return start, end, false, false
	}
	sc.pos = end
	if i := strings.IndexByte(sc.s[start:], '\n'); i >= 0 {
		end, nl, sc.pos = start+i, true, start+i+1
	}
	if end > start && sc.s[end-1] == '\r' {
		end--
	}
	return start, end, nl, true
}

// record reads the next non-empty record's fields into rec[:0]; ok is false
// at EOF.
func (sc *scanner) record(rec []string) (_ []string, ok bool) {
	rec = rec[:0]
	start, end, nl, ok := sc.line()
	for ok && start == end {
		start, end, nl, ok = sc.line()
	}
	if !ok {
		return rec, false
	}
	for s, i := sc.s, start; ; i++ { // i++ steps past a comma
		if i == end || s[i] != '"' {
			j := strings.IndexByte(s[i:end], ',')
			if j < 0 {
				return append(rec, s[i:end]), true
			}
			rec, i = append(rec, s[i:i+j]), i+j
			continue
		}
		// A quoted field is s[lo:hi] read with "" as " and CRLF as LF. It may
		// span lines, and an unterminated one runs to EOF.
		lo, hi, rewrite := i+1, 0, false
		for i++; ; {
			if j := strings.IndexByte(s[i:end], '"'); j >= 0 {
				hi, i = i+j, i+j+1
				if i < end && s[i] == '"' {
					rewrite, i = true, i+1
				} else if i == end || s[i] == ',' {
					break
				} // else a bare quote, which is kept
				continue
			}
			hi = end
			if nl {
				hi, rewrite = sc.pos, rewrite || s[end] == '\r'
			}
			if start, end, nl, ok = sc.line(); !ok {
				break
			}
			i = start
		}
		f := s[lo:hi]
		if rewrite {
			f = strings.ReplaceAll(strings.ReplaceAll(f, `""`, `"`), "\r\n", "\n")
		}
		if rec = append(rec, f); !ok || i == end {
			return rec, true
		}
	}
}

// WriteCSV writes the table to w as a header row followed by data rows.
// Ragged columns are padded with empty cells.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.Columns))
	for i := range t.Columns {
		header[i] = t.Columns[i].Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rows := t.NumRows()
	rec := make([]string, len(t.Columns))
	for r := 0; r < rows; r++ {
		for c := range t.Columns {
			if r < len(t.Columns[c].Values) {
				rec[c] = t.Columns[c].Values[r]
			} else {
				rec[c] = ""
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the table to path, creating parent directories.
func (t *Table) WriteCSVFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
