// Persistence example: a restart should not re-read the lake's CSVs. This
// walkthrough saves the Figure 1 lake and its graph's singleton setting to
// a durable snapshot (internal/persist), "restarts" by loading it back —
// the loader rebuilds the graph from the persisted attributes — and shows
// that the warm-started detector ranks identically and that the first
// update after the restart is still priced by its delta, because the
// loaded graph is wired to the rehydrated lake's attributes.
//
// Run with: go run ./examples/persistence
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"domainnet/internal/bipartite"
	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
	"domainnet/internal/persist"
	"domainnet/internal/table"
)

func main() {
	dir, err := os.MkdirTemp("", "domainnet-persistence")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "lake.snapshot")

	cfg := domainnet.Config{Measure: domainnet.BetweennessExact, KeepSingletons: true}

	// "First process": build once, serve, checkpoint to disk.
	l := datagen.Figure1Lake()
	det := domainnet.New(l, cfg)
	show("cold build", det)
	if err := persist.Save(path, l, det.Graph()); err != nil {
		log.Fatal(err)
	}
	fi, _ := os.Stat(path)
	fmt.Printf("checkpointed the lake to %s (%d bytes)\n\n", filepath.Base(path), fi.Size())

	// "Second process": warm-start from the snapshot. The lake comes off
	// disk already normalized; the graph is derived from its attributes.
	sn, err := persist.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	show("warm start (lake loaded, graph derived)", domainnet.FromGraph(sn.Graph, cfg))

	// The restart is invisible to the update path: adding a table to the
	// rehydrated lake rebuilds incrementally from the loaded graph.
	sn.Lake.MustAdd(table.New("T5").
		AddColumn("Make", "Jaguar", "Fiat", "Toyota").
		AddColumn("Sold", "12", "30", "25"))
	g, diff := bipartite.RebuildDiff(sn.Graph, sn.Lake.Attributes(), bipartite.Options{KeepSingletons: true})
	fmt.Printf("after adding T5: full rebuild %v, %d of %d nodes dirty — delta-priced rebuild\n\n",
		diff.Full, len(diff.Dirty), g.NumNodes())
	show("after post-restart update", domainnet.FromGraph(g, cfg))
}

func show(what string, det *domainnet.Detector) {
	fmt.Printf("%s:\n", what)
	for i, s := range det.TopK(3) {
		fmt.Printf("  %d. %-8s %.4f\n", i+1, s.Value, s.Score)
	}
	fmt.Println()
}
