package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"strtree/internal/datagen"
)

// runGen writes one of the repository's data sets as CSV, in the format
// build reads. The sets are uniform (density-5 squares), points, tiger,
// vlsi and cfd: the paper's four families, tiger/vlsi/cfd being the
// simulated stand-ins described in DESIGN.md §1.
func runGen(args []string) (err error) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	set := fs.String("set", "uniform", "data set name")
	n := fs.Int("n", 0, "number of items (0 = the paper's size)")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "-", "output file, or - for stdout")
	fs.Parse(args)

	catalog := datagen.Catalog()
	gen, ok := catalog[*set]
	if !ok {
		var names []string
		for name := range catalog {
			names = append(names, name)
		}
		slices.Sort(names)
		return fmt.Errorf("gen: unknown set %q; available: %v", *set, names)
	}
	size := *n
	if size == 0 {
		size = datagen.DefaultSize(*set)
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		w = f
	}

	entries := gen(size, *seed)
	if err := datagen.WriteCSV(w, entries); err != nil {
		return err
	}
	if *out != "-" {
		fmt.Fprintf(os.Stderr, "wrote %d %s items to %s\n", len(entries), *set, *out)
	}
	return nil
}
