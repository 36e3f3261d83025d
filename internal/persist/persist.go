// Package persist is the durable-snapshot subsystem: a versioned,
// zero-dependency binary codec that round-trips a lake.Lake together with
// its bipartite.Graph, so a process restart warm-starts from disk instead of
// re-normalizing and re-building a million-value lake from CSVs.
//
// What is persisted is deliberately the *derived* state, not just the data:
// the graph's value strings, CSR adjacency spans and occurrence counts are
// the expensive part of startup, and they are exactly what the
// incremental rebuild path (bipartite.RebuildDiff) needs to keep pricing updates
// by their delta after the restart. The lake's raw tables ride along so the
// loader can re-wire the graph to a live lake.Attributes() slice, restoring
// the pointer-identity change detection of bipartite.RebuildDiff.
//
// Format: a 4-byte magic, a uvarint format version, the body (lake header,
// symbol section, tables with their attributes, then an optional graph
// section), and a CRC-32 trailer over everything after the magic. All
// integers are unsigned varints; strings are a uvarint length followed by
// raw bytes. The symbol section holds each live value of the lake's
// lake.Symbols once, in ID order, and everywhere else a value is its rank
// there: an attribute's ascending ranks each as the ranks it skips, a graph
// value node as its rank, and one occurrence count per rank. The decoder
// adopts the section as the rehydrated lake's Symbols, so it interns
// nothing, and a decoded snapshot re-encodes to its own bytes. It also reads
// format 1, which wrote a value's string wherever the value appeared;
// Marshal writes only format 2. Saves are atomic (temp file + rename + sync)
// so a crash mid-checkpoint never clobbers the previous snapshot.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"

	"domainnet/internal/bipartite"
	"domainnet/internal/lake"
	"domainnet/internal/table"
)

// FormatVersion is the snapshot format Marshal writes. Loaders read it and
// format 1, and reject a newer one instead of mis-parsing it.
const FormatVersion = 2

// magic identifies a DomainNet snapshot file.
var magic = [4]byte{'D', 'N', 'E', 'T'}

// Snapshot is the result of Load: a rehydrated lake and, when the file
// carried one, its graph wired to the lake's attribute slice. A nil Graph
// means the saver had no incremental graph to persist; callers fall back to
// a cold build.
type Snapshot struct {
	Lake  *lake.Lake
	Graph *bipartite.Graph
}

// Save writes the lake and graph to path atomically: encode, write to a
// temp file in the same directory, sync, rename, sync the directory. g may
// be nil (lake-only snapshot); graphs without delta state (tripartite,
// hand-assembled) or over another lake's symbol table are silently saved
// without their graph section, since FromState could not reconstruct them.
func Save(path string, l *lake.Lake, g *bipartite.Graph) error {
	return WriteFile(path, Marshal(l, g))
}

// Marshal encodes the lake and graph into complete snapshot-file bytes.
// Split from WriteFile so a serving layer can encode under its write lock —
// the lake must not mutate mid-encode — while paying the disk write and
// fsyncs outside it (see cmd/domainnetd's checkpointer).
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
// version, rehydrates the lake (restoring its version counter) and, when a
// graph section is present, reconstructs the graph wired to the lake's
// current Attributes() — so the first incremental rebuild after a warm
// start detects unchanged attributes by pointer identity, exactly as if the
// process had never restarted.
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

	// The symbol section: every live value once, in ID order.
	syms, tables, tableAttrs := l.Symbols(), l.Tables(), l.TableAttributes()
	rank := make([]uint64, syms.Len()) // live rank + 1; 0 for a dead ID
	b = binary.AppendUvarint(b, uint64(l.Stats().Values))
	n := uint64(0)
	for id := range rank {
		if l.Live(uint32(id)) {
			n++
			rank[id] = n
			b = AppendString(b, syms.String(uint32(id)))
		}
	}

	b = binary.AppendUvarint(b, uint64(len(tables)))
	for ti, t := range tables {
		b = AppendTable(b, t)
		// The table's normalized attribute slice rides along so a warm
		// start skips re-normalizing every cell — on large lakes that scan
		// costs as much as the graph build it is trying to avoid.
		attrs := tableAttrs[ti]
		b = binary.AppendUvarint(b, uint64(len(attrs)))
		for ai := range attrs {
			a := &attrs[ai]
			b = AppendString(b, a.ID)
			b = AppendString(b, a.Column)
			b = binary.AppendUvarint(b, uint64(a.Cardinality()))
			// Ranks ascend with IDs: each goes out as the ranks it skips.
			prev := uint64(0)
			for _, id := range a.IDs() {
				b = binary.AppendUvarint(b, rank[id]-prev-1)
				prev = rank[id]
			}
			for _, f := range a.Freqs() {
				b = binary.AppendUvarint(b, uint64(f))
			}
		}
	}

	var st *bipartite.State
	if g != nil {
		st, _ = g.Export()
	}
	// A graph over another symbol table has IDs this lake cannot rank.
	if st == nil || st.Symbols != nil && st.Symbols != syms {
		return append(b, 0)
	}
	keep := byte(0)
	if st.KeepSingletons {
		keep = 1
	}
	b = append(b, 1, keep)
	b = binary.AppendUvarint(b, uint64(len(st.Values)))
	for _, v := range st.Values {
		id, _ := syms.Lookup([]byte(v))
		b = binary.AppendUvarint(b, rank[id]-1)
	}
	b = binary.AppendUvarint(b, uint64(len(st.AttrIDs)))
	for _, id := range st.AttrIDs {
		b = AppendString(b, id)
	}
	// Offsets are a monotone prefix sum; store first-order deltas, which are
	// node degrees and varint-compress far better than absolute offsets.
	b = binary.AppendUvarint(b, uint64(len(st.Offsets)))
	prev := int64(0)
	for _, o := range st.Offsets {
		b = binary.AppendUvarint(b, uint64(o-prev))
		prev = o
	}
	b = binary.AppendUvarint(b, uint64(len(st.Adj)))
	for _, v := range st.Adj {
		b = binary.AppendUvarint(b, uint64(v))
	}
	// One count per symbol, in rank order.
	b = binary.AppendUvarint(b, n)
	for id, r := range rank {
		if r != 0 {
			c := int64(0)
			if id < len(st.Occ) {
				c = st.Occ[id]
			}
			b = binary.AppendUvarint(b, uint64(c))
		}
	}
	return b
}

// AppendString appends a length-prefixed string, the codec's primitive for
// all text. Exported (with AppendTable and Reader) so internal/wal encodes
// its mutation records in the same format as snapshots.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendTable encodes one table — name, then each column's name and cell
// values — using the same layout the snapshot body uses, so the WAL's
// mutation records and the snapshot file share one table format.
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
// paths read linearly and check one error at the end of each section.
type Reader struct {
	buf  []byte
	err  error
	cell []byte // Table's per-column scratch
	ends []int
}

// NewReader returns a cursor over buf. internal/wal decodes its mutation
// record payloads with it; the snapshot decoder uses the same machinery.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err reports the first decode failure, or nil. Once set, every subsequent
// read is a no-op returning zero values.
func (r *Reader) Err() error { return r.err }

// Len reports the number of not-yet-consumed bytes.
func (r *Reader) Len() int { return len(r.buf) }

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
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Length reads a uvarint used as a count and bounds it by the remaining
// bytes (every counted element occupies at least one byte), so a corrupt
// count cannot trigger a huge allocation before the decode fails.
func (r *Reader) Length(what string) int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(len(r.buf)) {
		r.fail("%s count %d exceeds remaining %d bytes", what, v, len(r.buf))
		return 0
	}
	return int(v)
}

// String reads one length-prefixed string written by AppendString.
func (r *Reader) String() string { return string(r.bytes()) }

// bytes reads one length-prefixed string without copying it; the result
// aliases the input.
func (r *Reader) bytes() []byte {
	n := r.Length("string")
	if r.err != nil {
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// lookup reads one normalized value that must already be in syms.
func (r *Reader) lookup(syms *lake.Symbols, what string) uint32 {
	b := r.bytes()
	id, ok := syms.Lookup(b)
	if !ok {
		r.fail("%s %q is in no attribute", what, b)
	}
	return id
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

// strings reads a count and that many length-prefixed strings, which share
// one backing string: one allocation per list rather than per string.
func (r *Reader) strings(what string) []string {
	n := r.Length(what)
	r.cell, r.ends = r.cell[:0], r.ends[:0]
	for i := 0; i < n && r.err == nil; i++ {
		r.cell = append(r.cell, r.bytes()...)
		r.ends = append(r.ends, len(r.cell))
	}
	all := string(r.cell)
	strs := make([]string, len(r.ends))
	lo := 0
	for i, hi := range r.ends {
		strs[i], lo = all[lo:hi], hi
	}
	return strs
}

// Table reads one table written by AppendTable.
func (r *Reader) Table() *table.Table {
	t := table.New(r.String())
	nCols := r.Length("column")
	for ci := 0; ci < nCols && r.err == nil; ci++ {
		colName := r.String()
		t.AddColumn(colName, r.strings("cell")...)
	}
	return t
}

func (r *Reader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.fail("truncated byte")
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
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

	// Format 1 interns each value string where it reads it.
	syms, err := lake.NewSymbols(), error(nil)
	if v2 {
		if syms, err = lake.AdoptSymbols(r.strings("symbol")); err != nil {
			return nil, err
		}
	}
	nTables := r.Length("table")
	tables := make([]*table.Table, 0, nTables)
	tableAttrs := make([][]lake.Stored, 0, nTables)
	for ti := 0; ti < nTables && r.err == nil; ti++ {
		t := r.Table()
		nAttrs := r.Length("attribute")
		attrs := make([]lake.Stored, 0, nAttrs)
		for ai := 0; ai < nAttrs && r.err == nil; ai++ {
			a := lake.Stored{ID: r.String(), Column: r.String()}
			nVals := r.Length("attribute value")
			a.IDs, a.Freqs = make([]uint32, nVals), make([]int32, nVals)
			prev := -1
			for vi := 0; vi < nVals && r.err == nil; vi++ {
				if v2 {
					prev += 1 + int(r.below(uint64(syms.Len()-1-prev), "attribute value ID gap"))
					a.IDs[vi] = uint32(prev)
				} else {
					a.IDs[vi] = syms.AddBytes(r.bytes())
				}
			}
			for vi := 0; vi < nVals && r.err == nil; vi++ {
				a.Freqs[vi] = int32(r.below(math.MaxInt32+1, "cell count"))
			}
			attrs = append(attrs, a)
		}
		tables = append(tables, t)
		tableAttrs = append(tableAttrs, attrs)
	}
	if r.err != nil {
		return nil, r.err
	}
	l, err := lake.Rehydrate(name, version, syms, tables, tableAttrs)
	if err != nil {
		return nil, err
	}

	if r.byte() == 0 {
		if r.err != nil {
			return nil, r.err
		}
		return &Snapshot{Lake: l}, nil
	}
	st := &bipartite.State{KeepSingletons: r.byte() != 0, Symbols: syms}
	nVals := r.Length("value")
	st.Values = make([]string, 0, nVals)
	for i := 0; i < nVals && r.err == nil; i++ {
		var id uint32
		if v2 {
			id = r.below(uint64(syms.Len()), "graph value ID")
		} else {
			id = r.lookup(syms, "graph value")
		}
		if r.err == nil {
			st.Values = append(st.Values, syms.String(id))
		}
	}
	nAttrs := r.Length("attribute")
	st.AttrIDs = make([]string, 0, nAttrs)
	for i := 0; i < nAttrs && r.err == nil; i++ {
		st.AttrIDs = append(st.AttrIDs, r.String())
	}
	nOff := r.Length("offset")
	st.Offsets = make([]int64, 0, nOff)
	off := int64(0)
	for i := 0; i < nOff && r.err == nil; i++ {
		off += int64(r.Uvarint())
		st.Offsets = append(st.Offsets, off)
	}
	nAdj := r.Length("adjacency")
	st.Adj = make([]int32, 0, nAdj)
	for i := 0; i < nAdj && r.err == nil; i++ {
		st.Adj = append(st.Adj, int32(r.Uvarint()))
	}
	// Format 2 counts every symbol in ID order; format 1 names each value.
	nOcc := r.Length("occurrence")
	if v2 && r.err == nil && nOcc != syms.Len() {
		r.fail("%d occurrence counts for %d symbols", nOcc, syms.Len())
	}
	st.Occ = make([]int64, syms.Len())
	for i := 0; i < nOcc && r.err == nil; i++ {
		id := uint32(i)
		if !v2 {
			id = r.lookup(syms, "occurrence value")
		}
		if c := r.Uvarint(); r.err == nil {
			st.Occ[id] = int64(c)
		}
	}
	if r.err != nil {
		return nil, r.err
	}

	g, err := bipartite.FromState(st, l.Attributes())
	if err != nil {
		return nil, err
	}
	return &Snapshot{Lake: l, Graph: g}, nil
}
