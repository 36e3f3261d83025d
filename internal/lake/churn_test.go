package lake_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/lake"
	"domainnet/internal/serve"
	"domainnet/internal/table"
)

// churnTable is a table of values no earlier cycle used, each occurring
// twice so the singleton filter keeps it, plus a column of Figure 1 values
// tying it into the lake's graph.
func churnTable(name string, cycle int) *table.Table {
	t := table.New(name)
	for c := 0; c < 3; c++ {
		var vals []string
		for r := 0; r < 10; r++ {
			v := fmt.Sprintf("fresh%d_%d_%d", cycle, c, r/2)
			vals = append(vals, v)
		}
		t.AddColumn(fmt.Sprintf("c%d", c), vals...)
	}
	return t.AddColumn("known", "Jaguar", "Puma", "Toyota", "Panda", "Apple", "Fiat", "XE", "Lemur", "Jaguar", "Puma")
}

// TestSymbolTableBoundedUnderChurn adds and removes 1,000 tables of fresh
// values: the symbol table must stay within twice the live values plus the
// compaction floor, and the incremental rebuild must equal a scratch build
// at every step, across every compaction.
func TestSymbolTableBoundedUnderChurn(t *testing.T) {
	l := datagen.Figure1Lake()
	opts := bipartite.Options{}
	g := bipartite.FromLake(l, opts)
	syms := l.Symbols()
	compactions, fullAfterCompaction := 0, 0
	step := func() {
		t.Helper()
		attrs := l.Attributes()
		next, diff := bipartite.RebuildDiff(g, attrs, opts)
		if !next.Equal(bipartite.FromAttributes(attrs, opts)) {
			t.Fatalf("version %d: incremental graph differs from a scratch build", l.Version())
		}
		if s := l.Symbols(); s != syms {
			compactions++
			syms = s
			if diff == nil || !diff.Full {
				t.Fatalf("version %d: a graph of the previous symbol generation was rebuilt incrementally", l.Version())
			}
			fullAfterCompaction++
		}
		g = next
	}
	for cycle := 0; cycle < 1000; cycle++ {
		name := fmt.Sprintf("churn%d", cycle)
		l.MustAdd(churnTable(name, cycle))
		step()
		l.RemoveTable(name)
		step()
		if live := l.Stats().Values; l.Symbols().Len() > 2*live+lake.SymbolFloor {
			t.Fatalf("cycle %d: %d symbols for %d live values", cycle, l.Symbols().Len(), live)
		}
	}
	if compactions == 0 || fullAfterCompaction != compactions {
		t.Fatalf("compactions = %d, full rebuilds after them = %d", compactions, fullAfterCompaction)
	}
	if !g.Equal(bipartite.FromLake(datagen.Figure1Lake(), opts)) {
		t.Error("after the churn the graph differs from Figure 1's")
	}
}

// column is a one-column table of n values prefix0, prefix1, ...
func column(name, prefix string, n int) *table.Table {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return table.New(name).AddColumn("v", vals...)
}

// TestSymbolsAcrossChunks interns more than two chunks of values: String,
// Lookup and re-Intern must agree on both sides of each chunk boundary, in
// the first symbol generation and in the one a compaction re-numbers into.
func TestSymbolsAcrossChunks(t *testing.T) {
	n := 2*lake.SymChunk + 5
	check := func(when string, s *lake.Symbols, prefix string) {
		t.Helper()
		size := s.Len()
		for _, id := range []uint32{lake.SymChunk - 1, lake.SymChunk, 2*lake.SymChunk - 1, 2 * lake.SymChunk} {
			want := fmt.Sprintf("%s%d", prefix, id)
			if got := s.String(id); got != want {
				t.Errorf("%s: String(%d) = %q, want %q", when, id, got, want)
			}
			if got, ok := s.Lookup([]byte(want)); !ok || got != id {
				t.Errorf("%s: Lookup(%q) = %d, %v; want %d", when, want, got, ok, id)
			}
			if got, ok := s.Intern(strings.ToLower(want)); !ok || got != id {
				t.Errorf("%s: re-Intern(%q) = %d, %v; want %d", when, want, got, ok, id)
			}
		}
		if s.Len() != size {
			t.Errorf("%s: re-interning grew the table from %d to %d symbols", when, size, s.Len())
		}
	}

	// The kept values take the IDs after a larger table's; removing that
	// table compacts them into IDs 0 to n-1.
	l := lake.New("chunks")
	l.MustAdd(column("junk", "j", n+lake.SymbolFloor))
	l.MustAdd(column("keep", "k", n))
	l.Attributes()
	first := l.Symbols()
	check("first generation", first, "J")

	l.RemoveTable("junk")
	if l.Symbols() == first {
		t.Fatal("removing the larger table did not compact the symbol table")
	}
	if l.Symbols().Len() != n {
		t.Fatalf("compacted into %d symbols, want the %d kept", l.Symbols().Len(), n)
	}
	check("after compaction", l.Symbols(), "K")
}

// TestServeReadersWhileWriterInternsNewValues: readers hit /score and /topk
// while a writer uploads and deletes tables of new values, growing the
// writer's symbol table and compacting it. Published snapshots carry their
// own value strings, so under -race no reader may touch the symbol table.
// Each upload has at least lake.InlineCells cells, so its five columns go
// through ingest's worker passes, on at least two workers.
func TestServeReadersWhileWriterInternsNewValues(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	srv := serve.New(datagen.Figure1Lake(), domainnet.Config{Measure: domainnet.DegreeBaseline})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paths := []string{"/topk?k=5", "/score?value=jaguar", "/score?value=fresh1_0_0", "/topk?k=50"}
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				resp, err := http.Get(ts.URL + paths[(i+n)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					t.Errorf("reader got %d", resp.StatusCode)
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}(i)
	}

	rows := lake.InlineCells/5 + 1
	var b strings.Builder
	for round := 0; round < 30; round++ {
		b.Reset()
		b.WriteString("a,b,c,d,e\n")
		for r := 0; r < rows; r++ {
			fmt.Fprintf(&b, "fresh%d_%d_%d,fresh%d_%d_1,fresh%d_%d_2,fresh%d_%d_3,Jaguar\n",
				round, r, 0, round, r, round, r, round, r)
		}
		name := fmt.Sprintf("new%d", round)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/tables/"+name, strings.NewReader(b.String()))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("round %d: POST = %d", round, resp.StatusCode)
		}
		if round > 0 {
			req, _ = http.NewRequest(http.MethodDelete, ts.URL+fmt.Sprintf("/tables/new%d", round-1), nil)
			if resp, err = http.DefaultClient.Do(req); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("round %d: DELETE = %d", round, resp.StatusCode)
			}
		}
	}
	close(done)
	wg.Wait()
}
