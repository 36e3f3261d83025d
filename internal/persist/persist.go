// Package persist is the durable-snapshot subsystem: a versioned,
// zero-dependency binary codec that round-trips a lake.Lake and whether it
// was served with a bipartite.Graph, so a process restart warm-starts from
// disk instead of re-reading and re-normalizing a lake's CSVs.
//
// What is persisted is the normalized lake: each table's name and its
// attributes, every attribute's values with their cell counts. The raw
// cells are not kept: the DomainNet graph, and with it every ranking, is
// built from the attributes alone, so a restored table is its name only
// (see lake.Rehydrate) and cannot be written back out as a CSV. The graph
// is a pure function of those attributes and the singleton filter, so a
// snapshot records only that a graph was saved and its KeepSingletons
// setting; the loader derives the graph with the one build path,
// bipartite.FromAttributes, over the rehydrated lake's live Attributes()
// slice. The first incremental rebuild after a warm start
// (bipartite.RebuildDiff) then detects unchanged attributes by pointer
// identity, as if the process had never restarted.
//
// Format: a 4-byte magic, a uvarint format version, the body (lake header,
// symbol section, tables with their attributes, then a graph marker), and a
// CRC-32 trailer over everything after the magic. All integers are unsigned
// varints; strings are a uvarint length followed by raw bytes. The symbol
// section holds each live value of the lake once, in byte order, which is
// the graph's value order. A table is its name and its attributes. An
// attribute writes its ID and column name, then its ranks in the symbol
// section, ascending, each as the ranks it skips, then its cell counts. The
// decoder checks that the symbols strictly ascend and adopts them as the
// rehydrated lake's Symbols without copying them, and the graph build finds
// its values already in order instead of sorting them. The graph marker is
// 0 for a lake-only snapshot, or 1 followed by the KeepSingletons byte (0
// or 1); nothing follows it.
//
// The encoding is canonical: it depends on the lake's table names and
// attributes, not on the IDs its symbol table happened to assign, so a
// decoded snapshot re-encodes to its own bytes, and a follower that applied
// the same bursts as its leader encodes to the leader's bytes.
//
// The decoder also reads formats 1 to 4, which wrote every table's columns
// and cells too; it reads and range-checks those cells and keeps none of
// them, so a lake restored from any format has the same shape. Formats 1
// to 3 wrote each cell as a string (the layout AppendTable still writes for
// internal/wal); format 4 wrote the symbols as format 5 does, then every
// other distinct cell string once, and each cell as a reference into the
// two. Format 1 wrote a value's string wherever the value appeared and had
// no symbol section; formats 2 and 3 numbered their symbols in the writer's
// ID order, so the decoder rejects a repeat by hashing alone, and the graph
// build sorts their values. Formats 1 and 2 wrote a copy of the graph
// (value list, CSR offsets and adjacency, occurrence counts) after the keep
// byte, which the decoder skips: it is derived data, and the CRC already
// covers it. Marshal writes only format 5. Saves are atomic (temp file +
// rename + sync) so a crash mid-checkpoint never clobbers the previous
// snapshot.
//
// Decoding copies its input once, into one string, and every decoded string
// (symbols, table names, attribute IDs and columns) is a substring of that
// copy, so the caller may reuse its buffer as soon as Unmarshal returns.
// Any one substring keeps the whole copy live: its non-string bytes
// (lengths, ranks, counts; 38 KB of the 140 KB snapshot of SB seed 1) stay
// until the decoded tables are gone and the lake's symbol table has
// compacted. internal/wal decodes its records the same way.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"

	"domainnet/internal/bipartite"
	"domainnet/internal/lake"
	"domainnet/internal/table"
)

// FormatVersion is the snapshot format Marshal writes. Loaders read it and
// formats 1 to 4, and reject a newer one instead of mis-parsing it.
const FormatVersion = 5

// magic identifies a DomainNet snapshot file.
var magic = [4]byte{'D', 'N', 'E', 'T'}

// Snapshot is the result of Load: a rehydrated lake and, when the saver had
// a graph, that graph rebuilt over the lake's attribute slice with the
// saver's KeepSingletons setting. A nil Graph means a lake-only snapshot;
// callers then build the graph with their own configuration.
type Snapshot struct {
	Lake  *lake.Lake
	Graph *bipartite.Graph
}

// Save writes the snapshot of the lake and graph to path atomically:
// encode, write to a temp file in the same directory, sync, rename, sync the
// directory. See Marshal for what is kept of g.
func Save(path string, l *lake.Lake, g *bipartite.Graph) error {
	return WriteFile(path, Marshal(l, g))
}

// Marshal encodes the lake and graph into complete snapshot-file bytes. g
// contributes only its singleton setting (Graph.KeepsSingletons): Load
// derives the bipartite graph of the lake with that setting, whatever kind
// of graph g was. A nil g writes a lake-only snapshot. l must not mutate
// mid-encode: a serving layer passes a lake.Frozen view, which its writer
// cannot touch. Split from WriteFile so the encode and the disk write with
// its fsyncs can run at different times (see cmd/domainnetd's checkpointer).
func Marshal(l *lake.Lake, g *bipartite.Graph) []byte {
	buf := appendBody(append([]byte(nil), magic[:]...), l, g)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[len(magic):]))
}

// WriteFile atomically and durably writes marshaled snapshot bytes to path.
func WriteFile(path string, buf []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	// The rename is atomic but not durable until the directory entry is
	// synced: without this, a power loss after "checkpoint succeeded" can
	// resurface the previous snapshot. Skipped where directories cannot be
	// opened for syncing (non-POSIX platforms).
	if d, err := os.Open(dir); err == nil {
		serr := d.Sync()
		d.Close()
		if serr != nil {
			return fmt.Errorf("persist: syncing %s: %w", dir, serr)
		}
	}
	return nil
}

// Load reads a snapshot written by Save, verifies its checksum and format
// version, rehydrates the lake (restoring its version counter) and, when the
// saver had a graph, builds it over the lake's current Attributes() — so the
// first incremental rebuild after a warm start detects unchanged attributes
// by pointer identity, exactly as if the process had never restarted.
func Load(path string) (*Snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	sn, err := Unmarshal(buf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sn, nil
}

// Unmarshal decodes complete snapshot bytes produced by Marshal, verifying
// the magic, checksum and format version. It is the pure inverse of Marshal:
// Load is ReadFile + Unmarshal, and the replication follower applies it to a
// snapshot fetched over HTTP instead of from disk. Corrupt or truncated
// input yields an error, never a panic (FuzzLoad holds the decoder to that).
func Unmarshal(buf []byte) (*Snapshot, error) {
	if len(buf) < len(magic)+4 || [4]byte(buf[:4]) != magic {
		return nil, fmt.Errorf("persist: not a DomainNet snapshot")
	}
	body := buf[4 : len(buf)-4]
	want := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("persist: checksum mismatch (corrupt or truncated snapshot)")
	}
	sn, err := decodeBody(body)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	return sn, nil
}

// --- encoding ---

func appendBody(b []byte, l *lake.Lake, g *bipartite.Graph) []byte {
	b = binary.AppendUvarint(b, FormatVersion)
	b = AppendString(b, l.Name)
	b = binary.AppendUvarint(b, l.Version())

	// The symbol section: every value an attribute holds, once, in byte
	// order, whatever IDs the lake gave them.
	syms, tables, tableAttrs := l.Symbols(), l.Tables(), l.TableAttributes()
	rank := make([]uint32, syms.Len()) // byte-order rank + 1; 0 for a dead ID
	for _, attrs := range tableAttrs {
		for ai := range attrs {
			for _, id := range attrs[ai].IDs() {
				rank[id] = 1
			}
		}
	}
	var live []uint32
	for id, r := range rank {
		if r != 0 {
			live = append(live, uint32(id))
		}
	}
	bipartite.SortByValue(syms, live)
	b = binary.AppendUvarint(b, uint64(len(live)))
	for i, id := range live {
		rank[id] = uint32(i + 1)
		b = AppendString(b, syms.String(id))
	}

	var pairs []uint64 // rank<<32 | count, for one attribute
	b = binary.AppendUvarint(b, uint64(len(tables)))
	for ti, t := range tables {
		b = AppendString(b, t.Name)
		// The table's normalized attributes are all a restored lake
		// keeps of it: the graph is built from them alone.
		attrs := tableAttrs[ti]
		b = binary.AppendUvarint(b, uint64(len(attrs)))
		for ai := range attrs {
			a := &attrs[ai]
			b = AppendString(b, a.ID)
			b = AppendString(b, a.Column)
			b = binary.AppendUvarint(b, uint64(a.Cardinality()))
			pairs = pairs[:0]
			for j, id := range a.IDs() {
				pairs = append(pairs, uint64(rank[id])<<32|uint64(a.Freqs()[j]))
			}
			slices.Sort(pairs)
			// Ranks ascend: each goes out as the ranks it skips.
			prev := uint64(0)
			for _, p := range pairs {
				b = binary.AppendUvarint(b, p>>32-prev-1)
				prev = p >> 32
			}
			for _, p := range pairs {
				b = binary.AppendUvarint(b, uint64(uint32(p)))
			}
		}
	}

	// The graph is derived data: the marker and the singleton setting are
	// all a loader needs to build it from the attributes above.
	if g == nil {
		return append(b, 0)
	}
	keep := byte(0)
	if g.KeepsSingletons() {
		keep = 1
	}
	return append(b, 1, keep)
}

// AppendString appends a length-prefixed string, the codec's primitive for
// all text. Exported (with AppendTable and Reader) so internal/wal encodes
// its mutation records in the same format as snapshots.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendTable encodes one table — name, then each column's name and cell
// values — for internal/wal's mutation records, which keep raw tables
// because a follower normalizes what it applies. Snapshots of format 3 and
// earlier wrote their tables in this layout too.
func AppendTable(b []byte, t *table.Table) []byte {
	b = AppendString(b, t.Name)
	b = binary.AppendUvarint(b, uint64(len(t.Columns)))
	for ci := range t.Columns {
		col := &t.Columns[ci]
		b = AppendString(b, col.Name)
		b = binary.AppendUvarint(b, uint64(len(col.Values)))
		for _, v := range col.Values {
			b = AppendString(b, v)
		}
	}
	return b
}

// --- decoding ---

// Reader is a cursor over codec bytes with sticky error handling, so decode
// paths read linearly and check one error at the end of each section. It
// reads from one string copy of its input: every string it returns is a
// substring of that copy, so the caller may reuse the input buffer at once.
type Reader struct {
	buf string
	off int // bytes consumed: an int, so advancing needs no GC write barrier
	err error
}

// NewReader returns a cursor over a copy of buf. internal/wal decodes its
// mutation record payloads with it; the snapshot decoder uses the same
// machinery.
func NewReader(buf []byte) *Reader { return &Reader{buf: string(buf)} }

// Err reports the first decode failure, or nil. Once set, every subsequent
// read is a no-op returning zero values.
func (r *Reader) Err() error { return r.err }

// Len reports the number of not-yet-consumed bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Uvarint reads one unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint([]byte(r.buf[r.off:min(len(r.buf), r.off+binary.MaxVarintLen64)]))
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.off += n
	return v
}

// Length reads a uvarint used as a count and bounds it by the remaining
// bytes (every counted element occupies at least one byte), so a corrupt
// count cannot trigger a huge allocation before the decode fails.
func (r *Reader) Length(what string) int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(r.Len()) {
		r.fail("%s count %d exceeds remaining %d bytes", what, v, r.Len())
		return 0
	}
	return int(v)
}

// String reads one length-prefixed string written by AppendString, as a
// substring of the Reader's copy.
func (r *Reader) String() string {
	n := r.Length("string")
	if r.err != nil {
		return ""
	}
	s := r.buf[r.off : r.off+n]
	r.off += n
	return s
}

// below reads one uvarint, which must be below n.
func (r *Reader) below(n uint64, what string) uint32 {
	v := r.Uvarint()
	if r.err == nil && v >= n {
		r.fail("%s %d out of range [0, %d)", what, v, n)
		return 0
	}
	return uint32(v)
}

// Table reads one table written by AppendTable.
func (r *Reader) Table() *table.Table {
	t := table.New(r.String())
	nCols := r.Length("column")
	for ci := 0; ci < nCols && r.err == nil; ci++ {
		colName := r.String()
		vals := make([]string, r.Length("cell"))
		for i := 0; i < len(vals) && r.err == nil; i++ {
			vals[i] = r.String()
		}
		t.AddColumn(colName, vals...)
	}
	return t
}

// skip reads one length-prefixed string and keeps nothing.
func (r *Reader) skip() { r.off += r.Length("string") }

// skipColumns reads one table's columns as formats 1 to 4 wrote them, each
// cell by cell, and keeps nothing.
func (r *Reader) skipColumns(cell func()) {
	nCols := r.Length("column")
	for ci := 0; ci < nCols && r.err == nil; ci++ {
		r.skip()
		nCells := r.Length("cell")
		for i := 0; i < nCells && r.err == nil; i++ {
			cell()
		}
	}
}

func (r *Reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.Len() == 0 {
		r.fail("truncated byte")
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

func decodeBody(body []byte) (*Snapshot, error) {
	r := NewReader(body)
	format := r.Uvarint()
	if r.err == nil && (format < 1 || format > FormatVersion) {
		return nil, fmt.Errorf("snapshot format %d, this build reads 1 to %d", format, FormatVersion)
	}
	v2 := format >= 2
	name := r.String()
	version := r.Uvarint()

	// Format 1 interns each value string where it reads it; formats 4 and
	// 5 hold their symbols in byte order.
	syms, err := lake.NewSymbols(), error(nil)
	switch {
	case format >= 4:
		prev, i := "", 0
		syms, err = lake.AdoptSymbols(r.Length("symbol"), func() string {
			v := r.String()
			if i > 0 && v <= prev {
				r.fail("symbol %q does not sort after %q", v, prev)
			}
			prev, i = v, i+1
			return v
		})
	case v2:
		syms, err = lake.AdoptSymbols(r.Length("symbol"), r.String)
	}
	if r.err != nil {
		return nil, r.err
	}
	if err != nil {
		return nil, err
	}
	nSyms := uint64(syms.Len())
	// Formats 1 to 4 wrote every table's cells: each a string, or in format
	// 4 a reference into the symbols and the cell strings that follow them.
	// They are read and range-checked, and none is kept.
	cell := r.skip
	if format == 4 {
		refs := nSyms + uint64(r.Length("cell string"))
		for i := nSyms; i < refs && r.err == nil; i++ {
			r.skip()
		}
		cell = func() { r.below(refs, "cell reference") }
	}
	nTables := r.Length("table")
	names := make([]string, 0, nTables)
	tableAttrs := make([][]lake.Stored, 0, nTables)
	for ti := 0; ti < nTables && r.err == nil; ti++ {
		names = append(names, r.String())
		if format < 5 {
			r.skipColumns(cell)
		}
		nAttrs := r.Length("attribute")
		attrs := make([]lake.Stored, 0, nAttrs)
		for ai := 0; ai < nAttrs && r.err == nil; ai++ {
			a := lake.Stored{ID: r.String(), Column: r.String()}
			nVals := r.Length("attribute value")
			a.IDs, a.Freqs = make([]uint32, nVals), make([]int32, nVals)
			prev := -1
			for vi := 0; vi < nVals && r.err == nil; vi++ {
				if v2 {
					prev += 1 + int(r.below(nSyms-uint64(1+prev), "attribute value ID gap"))
					a.IDs[vi] = uint32(prev)
				} else {
					a.IDs[vi] = syms.Add(r.String())
				}
			}
			for vi := 0; vi < nVals && r.err == nil; vi++ {
				a.Freqs[vi] = int32(r.below(math.MaxInt32+1, "cell count"))
			}
			attrs = append(attrs, a)
		}
		tableAttrs = append(tableAttrs, attrs)
	}
	if r.err != nil {
		return nil, r.err
	}
	l, err := lake.Rehydrate(name, version, syms, names, tableAttrs)
	if err != nil {
		return nil, err
	}

	marker, keep := r.byte(), byte(0)
	if marker != 0 {
		keep = r.byte()
	}
	// Formats 1 and 2 follow the keep byte with a copy of the graph, which
	// is derived data; format 3 ends there.
	if format >= 3 && r.err == nil && (marker > 1 || keep > 1 || r.Len() != 0) {
		r.fail("graph marker %d, keep byte %d, then %d trailing bytes", marker, keep, r.Len())
	}
	if r.err != nil {
		return nil, r.err
	}
	sn := &Snapshot{Lake: l}
	if marker != 0 {
		sn.Graph = bipartite.FromAttributes(l.Attributes(), bipartite.Options{KeepSingletons: keep != 0})
	}
	return sn, nil
}
