// Command domainnet runs homograph detection over a directory of CSV files,
// printing the top-k homograph candidates (paper §3.4: construct graph →
// compute measure → rank).
//
// Usage:
//
//	domainnet -dir path/to/lake [-k 50] [-workers 0]
//	          [-measure bc|bc-exact|bc-eps|lcc|lcc-attr|degree|harmonic]
//	          [-samples 0] [-seed 1] [-keep-singletons] [-stats]
//
// Snapshot subcommands build, inspect and rank from durable snapshots (the
// same format domainnetd warm-starts from):
//
//	domainnet snapshot save -dir path/to/lake -out lake.snapshot [-keep-singletons] [-workers 0]
//	domainnet snapshot info -in lake.snapshot
//	domainnet snapshot load -in lake.snapshot [-k 50] [-measure bc] [...]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"domainnet/internal/bipartite"
	"domainnet/internal/domainnet"
	"domainnet/internal/lake"
	"domainnet/internal/persist"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "snapshot" {
		snapshotCmd(os.Args[2:])
		return
	}
	dir := flag.String("dir", "", "directory of CSV tables (required)")
	k := flag.Int("k", 50, "number of homograph candidates to print")
	measure := flag.String("measure", "bc", "scoring measure: bc, bc-exact, bc-eps, lcc, lcc-attr, degree or harmonic")
	samples := flag.Int("samples", 0, "approximate-BC sample count (0 = 1% of nodes)")
	seed := flag.Int64("seed", 1, "random seed for sampling")
	workers := flag.Int("workers", 0, "parallelism for graph build and scoring (0 = all CPUs)")
	keep := flag.Bool("keep-singletons", false, "keep values occurring only once")
	stats := flag.Bool("stats", false, "print lake and graph statistics")
	flag.Parse()

	if *dir == "" {
		flag.Usage()
		os.Exit(2)
	}

	m, ok := domainnet.ParseMeasure(*measure)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown measure %q (valid: %s; display names: %s)\n",
			*measure, strings.Join(domainnet.MeasureNames(), ", "), strings.Join(domainnet.Scorers(), ", "))
		os.Exit(2)
	}

	l, err := lake.LoadDir(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}

	det := domainnet.New(l, domainnet.Config{
		Measure:        m,
		Samples:        *samples,
		Seed:           *seed,
		Workers:        *workers,
		KeepSingletons: *keep,
	})

	if *stats {
		g := det.Graph()
		fmt.Printf("lake: %s\n", l.Stats())
		fmt.Printf("graph: %d value nodes, %d attribute nodes, %d edges\n\n",
			g.NumValues(), g.NumAttrs(), g.NumEdges())
	}

	fmt.Printf("top-%d homograph candidates by %s:\n", *k, m)
	for i, s := range det.TopK(*k) {
		fmt.Printf("%5d  %-40q %.6g\n", i+1, s.Value, s.Score)
	}
}

// snapshotCmd dispatches the snapshot save/info/load subcommands.
func snapshotCmd(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: domainnet snapshot save|info|load [flags]")
		os.Exit(2)
	}
	switch args[0] {
	case "save":
		snapshotSave(args[1:])
	case "info":
		snapshotInfo(args[1:])
	case "load":
		snapshotLoad(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "unknown snapshot subcommand %q (save, info, load)\n", args[0])
		os.Exit(2)
	}
}

// snapshotSave loads a CSV lake and persists it with its graph's singleton
// setting, so every later load skips CSV parsing and normalization. It
// builds the graph once to report its size.
func snapshotSave(args []string) {
	fs := flag.NewFlagSet("snapshot save", flag.ExitOnError)
	dir := fs.String("dir", "", "directory of CSV tables (required)")
	out := fs.String("out", "", "snapshot file to write (required)")
	workers := fs.Int("workers", 0, "graph-build parallelism (0 = all CPUs)")
	keep := fs.Bool("keep-singletons", false, "keep values occurring only once")
	fs.Parse(args) //nolint:errcheck // ExitOnError

	if *dir == "" || *out == "" {
		fs.Usage()
		os.Exit(2)
	}
	l, err := lake.LoadDir(*dir)
	if err != nil {
		fatal(err)
	}
	g := bipartite.FromLake(l, bipartite.Options{KeepSingletons: *keep, Workers: *workers})
	if err := persist.Save(*out, l, g); err != nil {
		fatal(err)
	}
	fmt.Printf("saved %s: lake %q (%s), graph %d value nodes / %d attribute nodes / %d edges\n",
		*out, l.Name, l.Stats(), g.NumValues(), g.NumAttrs(), g.NumEdges())
}

// snapshotInfo prints what a snapshot holds without scoring anything.
func snapshotInfo(args []string) {
	fs := flag.NewFlagSet("snapshot info", flag.ExitOnError)
	in := fs.String("in", "", "snapshot file to read (required)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *in == "" {
		fs.Usage()
		os.Exit(2)
	}
	sn, err := persist.Load(*in)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("lake %q, version %d: %s\n", sn.Lake.Name, sn.Lake.Version(), sn.Lake.Stats())
	if sn.Graph == nil {
		fmt.Println("graph: none (lake-only snapshot; loads cold-build)")
		return
	}
	fmt.Printf("graph: %d value nodes, %d attribute nodes, %d edges, keep-singletons=%v\n",
		sn.Graph.NumValues(), sn.Graph.NumAttrs(), sn.Graph.NumEdges(), sn.Graph.KeepsSingletons())
}

// snapshotLoad ranks from a snapshot without reading any CSV: the lake loads
// already normalized, and the graph the loader derives with the saver's
// singleton setting feeds the detector.
func snapshotLoad(args []string) {
	fs := flag.NewFlagSet("snapshot load", flag.ExitOnError)
	in := fs.String("in", "", "snapshot file to read (required)")
	k := fs.Int("k", 50, "number of homograph candidates to print")
	measure := fs.String("measure", "bc", "scoring measure: bc, bc-exact, bc-eps, lcc, lcc-attr, degree or harmonic")
	samples := fs.Int("samples", 0, "approximate-BC sample count (0 = 1% of nodes)")
	seed := fs.Int64("seed", 1, "random seed for sampling")
	workers := fs.Int("workers", 0, "scoring parallelism (0 = all CPUs)")
	keep := fs.Bool("keep-singletons", false, "keep values occurring only once (used when the snapshot has no graph)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if *in == "" {
		fs.Usage()
		os.Exit(2)
	}
	m, ok := domainnet.ParseMeasure(*measure)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown measure %q (valid: %s)\n",
			*measure, strings.Join(domainnet.MeasureNames(), ", "))
		os.Exit(2)
	}
	sn, err := persist.Load(*in)
	if err != nil {
		fatal(err)
	}
	cfg := domainnet.Config{
		Measure:        m,
		Samples:        *samples,
		Seed:           *seed,
		Workers:        *workers,
		KeepSingletons: *keep,
	}
	var det *domainnet.Detector
	if sn.Graph != nil {
		cfg.KeepSingletons = sn.Graph.KeepsSingletons()
		det = domainnet.FromGraph(sn.Graph, cfg)
	} else {
		det = domainnet.New(sn.Lake, cfg)
	}
	fmt.Printf("top-%d homograph candidates by %s (lake %q, version %d):\n",
		*k, m, sn.Lake.Name, sn.Lake.Version())
	for i, s := range det.TopK(*k) {
		fmt.Printf("%5d  %-40q %.6g\n", i+1, s.Value, s.Score)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}
