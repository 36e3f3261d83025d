package table

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// ReadCSV parses a table from r. The first record is taken as the header row
// (attribute names); subsequent records are data rows. Records may have
// varying field counts — short rows are padded with empty cells and long
// rows extend the column set with positional names, because open-data CSVs
// are frequently ragged.
func ReadCSV(name string, r io.Reader) (*Table, error) {
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
