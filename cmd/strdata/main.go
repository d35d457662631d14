// Command strdata generates the repository's data sets as CSV, in the
// format cmd/strload builds indexes from:
//
//	strdata -set tiger -out tiger.csv
//	strdata -set uniform -n 10000 -seed 7 -out -     # stdout
//
// Available sets: uniform (density-5 squares), points, tiger, vlsi, cfd —
// the paper's four families (tiger/vlsi/cfd are the simulated stand-ins
// described in DESIGN.md §1).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"strtree/internal/datagen"
)

func main() {
	var (
		set  = flag.String("set", "uniform", "data set name")
		n    = flag.Int("n", 0, "number of items (0 = the paper's size)")
		seed = flag.Int64("seed", 1, "generator seed")
		out  = flag.String("out", "-", "output file, or - for stdout")
	)
	flag.Parse()

	catalog := datagen.Catalog()
	gen, ok := catalog[*set]
	if !ok {
		var names []string
		for name := range catalog {
			names = append(names, name)
		}
		slices.Sort(names)
		fmt.Fprintf(os.Stderr, "strdata: unknown set %q; available: %v\n", *set, names)
		os.Exit(2)
	}
	size := *n
	if size == 0 {
		size = datagen.DefaultSize(*set)
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "strdata: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "strdata: %v\n", err)
				os.Exit(1)
			}
		}()
		w = f
	}

	entries := gen(size, *seed)
	if err := datagen.WriteCSV(w, entries); err != nil {
		fmt.Fprintf(os.Stderr, "strdata: %v\n", err)
		os.Exit(1)
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "wrote %d %s items to %s\n", len(entries), *set, *out)
	}
}
