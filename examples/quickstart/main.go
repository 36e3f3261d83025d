// Quickstart: build a DomainNet detector over the paper's running example
// (Figure 1) and print the homograph ranking.
//
// The lake contains four tables about sponsorships, zoos, cars and company
// financials. "Jaguar" and "Puma" each mean two different things; DomainNet
// ranks them first by betweenness centrality without any supervision.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"

	"domainnet/internal/datagen"
	"domainnet/internal/domainnet"
)

func main() {
	lake := datagen.Figure1Lake()
	fmt.Printf("data lake %q: %s\n", lake.Name, lake.Stats())

	// Every Measure constant below is a row of the detector's measure table;
	// these are their display names.
	fmt.Printf("measures: %v\n\n", domainnet.Scorers())

	// Step 1+2: build the bipartite value/attribute graph and score every
	// value node with exact betweenness centrality (the lake is tiny).
	det := domainnet.New(lake, domainnet.Config{
		Measure:        domainnet.BetweennessExact,
		KeepSingletons: true, // keep one-off values: the example is about the graph shape
	})
	g := det.Graph()
	fmt.Printf("DomainNet graph: %d value nodes, %d attribute nodes, %d edges\n\n",
		g.NumValues(), g.NumAttrs(), g.NumEdges())

	// Step 3: rank. Homographs surface at the top.
	fmt.Println("rank  value        betweenness")
	for i, s := range det.TopK(8) {
		marker := ""
		if s.Value == "JAGUAR" || s.Value == "PUMA" {
			marker = "  <- homograph"
		}
		fmt.Printf("%4d  %-12s %.4f%s\n", i+1, s.Value, s.Score, marker)
	}

	// The LCC alternative ranks ascending; compare the two measures on the
	// values the paper discusses in Example 3.6.
	lcc := domainnet.New(lake, domainnet.Config{
		Measure:        domainnet.LCC,
		KeepSingletons: true,
	})
	fmt.Println("\nExample 3.6 scores (BC descending, LCC ascending):")
	for _, v := range []string{"JAGUAR", "PUMA", "TOYOTA", "PANDA"} {
		bc, _ := det.Score(v)
		l, _ := lcc.Score(v)
		fmt.Printf("  %-8s BC=%.4f  LCC=%.3f\n", v, bc, l)
	}
}
