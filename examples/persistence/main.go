// Persistence example: a restart should not cost a full graph build. This
// walkthrough saves the Figure 1 lake together with its built graph to a
// durable snapshot (internal/persist), "restarts" by loading it back, and
// shows that the warm-started detector ranks identically — without invoking
// the full construction — and that the first update after the restart is
// still priced by its delta, because the loaded graph supports incremental
// rebuilds exactly like the one that was saved.
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
	fmt.Printf("checkpointed lake+graph to %s (%d bytes)\n\n", filepath.Base(path), fi.Size())

	// "Second process": warm-start from the snapshot. The graph comes off
	// disk — values, adjacency and occurrence counts included — so no full
	// build runs.
	before := bipartite.FullBuilds()
	sn, err := persist.Load(path)
	if err != nil {
		log.Fatal(err)
	}
	warm := domainnet.FromGraph(sn.Graph, cfg)
	show("warm start (graph loaded, not rebuilt)", warm)
	fmt.Printf("full graph builds during warm start: %d\n\n", bipartite.FullBuilds()-before)

	// The restart is invisible to the update path: adding a table to the
	// rehydrated lake rebuilds incrementally from the loaded graph.
	sn.Lake.MustAdd(table.New("T5").
		AddColumn("Make", "Jaguar", "Fiat", "Toyota").
		AddColumn("Sold", "12", "30", "25"))
	attrs := sn.Lake.Attributes()
	fmt.Printf("after adding T5: %d of %d attributes changed — delta-priced rebuild\n",
		len(bipartite.Changed(sn.Graph, attrs)), len(attrs))
	g, _ := bipartite.RebuildDiff(sn.Graph, attrs, bipartite.Options{KeepSingletons: true})
	show("after post-restart update", domainnet.FromGraph(g, cfg))
}

func show(what string, det *domainnet.Detector) {
	fmt.Printf("%s:\n", what)
	for i, s := range det.TopK(3) {
		fmt.Printf("  %d. %-8s %.4f\n", i+1, s.Value, s.Score)
	}
	fmt.Println()
}
