package lake_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"domainnet/internal/datagen"
	"domainnet/internal/lake"
	"domainnet/internal/table"
)

// step is one update of a lake: tables added, then tables removed.
type step struct {
	add    []*table.Table
	remove []string
}

// replay applies steps to two fresh lakes and, after each, normalizes one
// through Attributes and the other through the per-cell reference; their
// symbol tables and attributes must be identical. It reports how often the
// symbol table compacted.
func replay(t *testing.T, steps []step) (compactions int) {
	t.Helper()
	got, want := lake.New("got"), lake.New("want")
	syms := got.Symbols()
	for si, s := range steps {
		for _, tb := range s.add {
			if err := got.Add(tb); err != nil {
				t.Fatal(err)
			}
			want.MustAdd(tb)
		}
		for _, name := range s.remove {
			got.RemoveTable(name)
			want.RemoveTable(name)
		}
		got.Attributes()
		want.ReferenceAttributes()
		sameLakes(t, fmt.Sprintf("step %d", si), got, want)
		if got.Symbols() != syms {
			compactions++
			syms = got.Symbols()
		}
	}
	return compactions
}

// sameLakes fails unless got and want hold the same symbols, by ID, and the
// same attributes, table by table; every table must have a non-nil slice.
func sameLakes(t *testing.T, when string, got, want *lake.Lake) {
	t.Helper()
	gs, ws := got.Symbols(), want.Symbols()
	if gs.Len() != ws.Len() {
		t.Fatalf("%s: %d symbols, the reference has %d", when, gs.Len(), ws.Len())
	}
	for id := range uint32(gs.Len()) {
		if gs.String(id) != ws.String(id) {
			t.Fatalf("%s: symbol %d is %q, the reference's %q", when, id, gs.String(id), ws.String(id))
		}
	}
	ga, wa := got.TableAttributes(), want.TableAttributes()
	for ti, tb := range got.Tables() {
		if ga[ti] == nil {
			t.Fatalf("%s: table %s has a nil attribute slice", when, tb.Name)
		}
		if len(ga[ti]) != len(wa[ti]) {
			t.Fatalf("%s: table %s has %d attributes, the reference %d", when, tb.Name, len(ga[ti]), len(wa[ti]))
		}
		for ai := range ga[ti] {
			g, w := &ga[ti][ai], &wa[ti][ai]
			if g.ID != w.ID || g.Table != w.Table || g.Column != w.Column ||
				!slices.Equal(g.IDs(), w.IDs()) || !slices.Equal(g.Freqs(), w.Freqs()) {
				t.Fatalf("%s: attribute %s is %v %v %v, the reference's %s %v %v",
					when, g.ID, g.Column, g.IDs(), g.Freqs(), w.ID, w.IDs(), w.Freqs())
			}
		}
	}
}

// oddTable has columns of only missing cells, values repeated within and
// across columns, and non-ASCII cells whose upper case has another byte
// length (ı and ſ shrink, ɐ and ȿ grow) or that only Unicode trimming
// empties.
func oddTable(name string) *table.Table {
	return table.New(name).
		AddColumn("empty", "", "", "").
		AddColumn("blank", " ", "\t", "\r\n", "\v\f").
		AddColumn("unicode-blank", "\u0085", " ", "   ").
		AddColumn("repeats", "jaguar", "Jaguar ", "PUMA", " jaguar", "puma", "").
		AddColumn("across", "Puma", "lion", "JAGUAR", "lion").
		AddColumn("", "ı", "I", "ſ", "s", "ɐ", "ⱯX", "ȿ", "straße", "éclair", "ÉCLAIR", "\u0085x", "\xff", "a\xffb", "ǅ")
}

func TestParallelIngestMatchesSequential(t *testing.T) {
	sb := datagen.NewSB(1).Lake.Tables()
	junk := make([]string, lake.SymbolFloor+100)
	for i := range junk {
		junk[i] = fmt.Sprintf("junk%d", i)
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"incremental", []step{
			{add: sb[:5]},
			{add: sb[5:8]},
			{add: sb[8:9]},
			{add: sb[9:], remove: []string{sb[2].Name}},
			{add: sb[2:3]},
		}},
		{"churn", []step{
			{add: append([]*table.Table{table.New("junk").AddColumn("v", junk...)}, sb[:4]...)},
			{remove: []string{"junk"}},
			{add: append([]*table.Table{oddTable("odd")}, sb[4:]...)},
		}},
		{"odd cells", []step{
			{add: []*table.Table{oddTable("odd1"), table.New("none").AddColumn("a", "").AddColumn("b", "  ")}},
			{add: []*table.Table{oddTable("odd2")}},
		}},
	}
	for seed := int64(1); seed <= 5; seed++ {
		cases = append(cases, struct {
			name  string
			steps []step
		}{fmt.Sprintf("SB seed %d", seed), []step{{add: datagen.NewSB(seed).Lake.Tables()}}})
	}
	for _, procs := range []int{1, 4} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/procs=%d", c.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				if n := replay(t, c.steps); c.name == "churn" && n != 1 {
					t.Fatalf("the churn compacted %d times, want once", n)
				}
			})
		}
	}
}

// FuzzTableAttributes holds ingest to the per-cell reference on two small
// tables cut from the input, one line a cell, dealt round-robin into one to
// four columns; the second table is added onto the normalized first.
//
//	go test -fuzz=FuzzTableAttributes -fuzztime=10s -run '^$' ./internal/lake
func FuzzTableAttributes(f *testing.F) {
	f.Add("Jaguar\npuma\n jaguar\nPUMA\n\n \nstraße\nı\nI", uint8(1))
	f.Add("a\nb\nA\n\t\nɐ\nⱯ\n\u0085\nb \n\xff", uint8(2))
	f.Add("x", uint8(0))
	f.Fuzz(func(t *testing.T, data string, shape uint8) {
		cells := strings.Split(data, "\n")
		half := len(cells) / 2
		ncols := 1 + int(shape%4)
		replay(t, []step{
			{add: []*table.Table{dealt("a", cells[:half], ncols)}},
			{add: []*table.Table{dealt("b", cells[half:], ncols)}},
		})
	})
}

// dealt deals cells round-robin into ncols columns; a column left without a
// cell gets one missing cell.
func dealt(name string, cells []string, ncols int) *table.Table {
	t := table.New(name)
	for c := range ncols {
		var vals []string
		for i := c; i < len(cells); i += ncols {
			vals = append(vals, cells[i])
		}
		if len(vals) == 0 {
			vals = []string{""}
		}
		t.AddColumn(fmt.Sprintf("c%d", c), vals...)
	}
	return t
}

// attributesSink keeps BenchmarkAttributesSB's result live.
var attributesSink []lake.Attribute

// BenchmarkAttributesSB normalizes the SB seed 1 lake loaded from its CSVs,
// as a fresh LoadDir caller does: the load is untimed, so an iteration is
// one Attributes call over 13 uncached tables (39 columns, 35,486 cells).
//
//	go test -run '^$' -bench AttributesSB -benchmem -cpu 1,2 ./internal/lake
func BenchmarkAttributesSB(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "sb")
	if err := datagen.NewSB(1).Lake.SaveDir(dir); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	// A b.N loop, not b.Loop: under go1.24's b.Loop the untimed loads kept
	// the benchmark running for minutes.
	for range b.N {
		b.StopTimer()
		l, err := lake.LoadDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		attributesSink = l.Attributes()
	}
}

// BenchmarkAddTableSB normalizes one write-sized table added to the SB seed
// 1 lake: 3 columns of 200 cells, 70% of them SB values and the rest values
// of its own, the shape of the repository benchmark's uploads. An iteration
// is one Attributes call over the new table (the add and the removal that
// follows are untimed), which is below the cell count that wakes workers.
//
//	go test -run '^$' -bench AddTableSB -benchmem -cpu 1,2 ./internal/lake
func BenchmarkAddTableSB(b *testing.B) {
	l := datagen.NewSB(1).Lake
	l.Attributes()
	syms := l.Symbols()
	rng := rand.New(rand.NewSource(1))
	tb := table.New("upload")
	for c := range 3 {
		col := make([]string, 200)
		for r := range col {
			if rng.Float64() < 0.7 {
				col[r] = syms.String(uint32(rng.Intn(syms.Len())))
			} else {
				col[r] = fmt.Sprintf("W_%d_%d", c, rng.Intn(1000))
			}
		}
		tb.AddColumn(fmt.Sprintf("c%d", c), col...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		l.MustAdd(tb)
		b.StartTimer()
		attributesSink = l.Attributes()
		b.StopTimer()
		l.RemoveTable(tb.Name)
		b.StartTimer()
	}
}
