package lake_test

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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

// TestServeReadersWhileWriterInternsNewValues: readers hit /score and /topk
// while a writer uploads and deletes tables of new values, growing the
// writer's symbol table and compacting it. Published snapshots carry their
// own value strings, so under -race no reader may touch the symbol table.
func TestServeReadersWhileWriterInternsNewValues(t *testing.T) {
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

	var b strings.Builder
	for round := 0; round < 30; round++ {
		b.Reset()
		b.WriteString("a,b,c,d,e\n")
		for r := 0; r < 60; r++ {
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
