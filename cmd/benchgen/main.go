// Command benchgen materializes the benchmark data lakes as CSV directories
// so they can be inspected or fed to cmd/domainnet.
//
// Usage:
//
//	benchgen -out DIR [-dataset sb|tus|tus-i|nyc] [-scale small|medium|full] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"domainnet/internal/datagen"
	"domainnet/internal/experiments"
	"domainnet/internal/table"
	"domainnet/internal/union"
)

func main() {
	out := flag.String("out", "", "output directory (required)")
	dataset := flag.String("dataset", "sb", "dataset: sb, tus, tus-i or nyc")
	scaleFlag := flag.String("scale", "small", "scale for tus/tus-i/nyc: small, medium or full")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	scale := experiments.ScaleSmall
	switch *scaleFlag {
	case "medium":
		scale = experiments.ScaleMedium
	case "full":
		scale = experiments.ScaleFull
	}

	switch *dataset {
	case "sb":
		sb := datagen.NewSB(*seed)
		exitOn(sb.Lake.SaveDir(*out))
		exitOn(writeGroundTruth(filepath.Join(*out, "ground_truth_homographs.txt"), sb.Homographs))
		fmt.Printf("wrote SB (%d tables, %d homographs) to %s\n",
			sb.Lake.NumTables(), len(sb.Homographs), *out)
	case "tus", "tus-i":
		cfg := experiments.TUSConfigFor(scale)
		cfg.Seed = *seed
		gt := datagen.TUS(cfg)
		if *dataset == "tus-i" {
			cfg.Homographs = 0
			gt = datagen.TUS(cfg).RemoveHomographs()
		}
		exitOn(saveAttrs(gt, *out))
		exitOn(writeGroundTruth(filepath.Join(*out, "ground_truth_homographs.txt"), gt.Homographs()))
		fmt.Printf("wrote %s (%d attributes, %d homographs) to %s\n",
			*dataset, len(gt.Attrs), len(gt.Homographs()), *out)
	case "nyc":
		nycScale := map[experiments.Scale]float64{
			experiments.ScaleSmall: 0.02, experiments.ScaleMedium: 0.1, experiments.ScaleFull: 1.0,
		}[scale]
		gt := experiments.NYCGroundTruth(nycScale)
		exitOn(saveAttrs(gt, *out))
		fmt.Printf("wrote nyc scale %.2f (%d attributes) to %s\n", nycScale, len(gt.Attrs), *out)
	default:
		fmt.Fprintf(os.Stderr, "unknown dataset %q\n", *dataset)
		os.Exit(2)
	}
}

// saveAttrs writes generator attributes as one CSV per table, repeating
// values per their frequency so a reload reproduces the same graph.
func saveAttrs(gt *union.GroundTruth, dir string) error {
	tables := map[string]*table.Table{}
	var order []*table.Table
	for _, a := range gt.Attrs {
		t, ok := tables[a.Table]
		if !ok {
			t = table.New(a.Table)
			tables[a.Table] = t
			order = append(order, t)
		}
		var cells []string
		for j, v := range a.Values() {
			for r := 0; r < int(a.Freqs()[j]); r++ {
				cells = append(cells, v)
			}
		}
		slices.Sort(cells) // value order, as generators have always written it
		t.AddColumn(a.Column, cells...)
	}
	for _, t := range order {
		if err := t.WriteCSVFile(filepath.Join(dir, t.Name+".csv")); err != nil {
			return err
		}
	}
	return nil
}

// writeGroundTruth stores one homograph per line. The file deliberately
// uses a .txt extension: lake.LoadDir ingests every .csv in a directory,
// and the ground truth must not become a 14th table of the lake.
func writeGroundTruth(path string, homographs []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, h := range homographs {
		if _, err := fmt.Fprintln(f, h); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
