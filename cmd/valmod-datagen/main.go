// Command valmod-datagen writes synthetic evaluation datasets to disk in
// any of the formats the suite loads (.txt, .bin). It replaces the paper's
// proprietary recordings with structurally equivalent series (see
// internal/gen).
//
// Usage:
//
//	valmod-datagen -dataset ecg -n 500000 -seed 7 -out ecg.bin
//	valmod-datagen -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/seriesmining/valmod/internal/gen"
)

func main() {
	var (
		dataset = flag.String("dataset", "ecg", "dataset name (-list to enumerate)")
		n       = flag.Int("n", 100000, "number of points")
		seed    = flag.Int64("seed", 1, "generator seed")
		out     = flag.String("out", "", "output path (.txt or .bin; required)")
		list    = flag.Bool("list", false, "list dataset names and exit")
	)
	flag.Parse()
	if *list {
		fmt.Println(strings.Join(gen.Names(), "\n"))
		return
	}
	if err := run(*dataset, *n, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "valmod-datagen:", err)
		os.Exit(1)
	}
}

func run(dataset string, n int, seed int64, out string) error {
	if out == "" {
		return fmt.Errorf("-out is required")
	}
	s, err := gen.Dataset(dataset, n, seed)
	if err != nil {
		return err
	}
	if err := s.SaveFile(out); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d points) to %s\n", s.Name, s.Len(), out)
	return nil
}
