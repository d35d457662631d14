// Package experiments reproduces the STR paper's evaluation: one function
// per table and figure, each returning a Table whose rows mirror what the
// paper reports. The methodology follows Section 3: R-trees with 100
// rectangles per node, one node per 4 KiB page, an LRU buffer pool, 2,000
// queries per experiment, and disk accesses (buffer misses) as the
// primary metric.
//
// The paper's full grid took two months of Sparc 5 time; Config.Scale
// shrinks data sizes (and buffer sizes proportionally, preserving the
// buffer-to-tree ratios that drive the results) so the whole suite runs in
// minutes. Scale = 1 reproduces the paper's exact sizes.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strings"
	"text/tabwriter"

	"strtree/internal/buffer"
	"strtree/internal/geom"
	"strtree/internal/node"
	"strtree/internal/pack"
	"strtree/internal/rtree"
	"strtree/internal/storage"
)

// Config controls experiment scale. The zero value is not useful; use
// Default or Full.
type Config struct {
	// Scale multiplies every data-set size and buffer size. 1.0 is the
	// paper's configuration.
	Scale float64
	// Queries per experiment; the paper uses 2,000.
	Queries int
	// Capacity is the R-tree fan-out; the paper uses 100.
	Capacity int
	// Seed drives all data and query generation.
	Seed int64
}

// Full is the paper's exact configuration.
func Full() Config {
	return Config{Scale: 1, Queries: 2000, Capacity: 100, Seed: 1}
}

// size scales a paper data-set size.
func (c Config) size(n int) int {
	s := int(float64(n)*c.Scale + 0.5)
	if s < c.Capacity*2 {
		s = c.Capacity * 2 // keep at least two leaves so there is a tree
	}
	return s
}

// bufPages scales a paper buffer size, keeping at least 3 pages.
func (c Config) bufPages(b int) int {
	s := int(float64(b)*c.Scale + 0.5)
	if s < 3 {
		s = 3
	}
	return s
}

// Table is one reproduced table or figure: a title, column header, and
// formatted rows. Figures are emitted as their underlying data series.
type Table struct {
	// ID is the paper artifact this reproduces, e.g. "Table 2" or
	// "Figure 9".
	ID string
	// Title describes the contents.
	Title string
	// Note carries scale caveats.
	Note string
	// Header names the columns.
	Header []string
	// Rows are the formatted cells.
	Rows [][]string
}

// FprintCSV renders the table as CSV (one header row, then data rows),
// for feeding plotting tools.
func (t *Table) FprintCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "   (%s)\n", t.Note); err != nil {
			return err
		}
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Runner is an experiment entry point.
type Runner func(Config) (*Table, error)

// registry maps experiment ids (lower-case, no space: "table2", "fig9")
// to runners. Populated by init functions in the per-experiment files.
var registry = map[string]Runner{}

// Register adds an experiment to the registry; it panics on duplicates.
func Register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		//strlint:ignore panics init-time registry misuse must fail loudly at startup
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// Lookup returns the runner for an experiment id.
func Lookup(id string) (Runner, bool) {
	r, ok := registry[strings.ToLower(id)]
	return r, ok
}

// IDs returns all registered experiment ids, sorted tables-first.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b string) int {
		ta := strings.HasPrefix(a, "table")
		tb := strings.HasPrefix(b, "table")
		if ta != tb {
			if ta {
				return -1
			}
			return 1
		}
		// Numeric suffix order.
		return numSuffix(a) - numSuffix(b)
	})
	return ids
}

func numSuffix(s string) int {
	n := 0
	for _, c := range s {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}

// Algorithm pairs a packing order with its paper name.
type Algorithm struct {
	Name    string
	Orderer rtree.Orderer
}

// PaperAlgorithms returns the three algorithms of the comparison in the
// paper's column order: STR, HS, NX.
func PaperAlgorithms() []Algorithm {
	return []Algorithm{
		{Name: "STR", Orderer: pack.STR{}},
		{Name: "HS", Orderer: pack.HS{}},
		{Name: "NX", Orderer: pack.NX{}},
	}
}

// BuildPacked bulk-loads a fresh in-memory tree from a copy of entries
// using the given packing order, behind an LRU pool of bufPages pages.
// The pool arrives invalidated with zeroed statistics, ready to measure.
func BuildPacked(entries []node.Entry, o rtree.Orderer, bufPages, capacity int) (*rtree.Tree, error) {
	pool := buffer.NewPool(storage.NewMemPager(4096), bufPages)
	tr, err := rtree.Create(pool, rtree.Config{Dims: 2, Capacity: capacity})
	if err != nil {
		return nil, err
	}
	cp := make([]node.Entry, len(entries))
	copy(cp, entries)
	if err := tr.BulkLoad(cp, o); err != nil {
		return nil, err
	}
	if err := pool.Invalidate(); err != nil {
		return nil, err
	}
	pool.ResetStats()
	return tr, nil
}

// AvgAccesses runs the query batch against a cold buffer and returns the
// mean number of disk accesses per query — the paper's primary metric.
// The LRU pool stays warm across the batch, exactly as in the paper's
// runs.
func AvgAccesses(tr *rtree.Tree, queries []geom.Rect) (float64, error) {
	pool := tr.Pool()
	if err := pool.Invalidate(); err != nil {
		return 0, err
	}
	pool.ResetStats()
	for _, q := range queries {
		if err := tr.Search(q, func(node.Entry) bool { return true }); err != nil {
			return 0, err
		}
	}
	return float64(pool.Stats().DiskReads) / float64(len(queries)), nil
}

// f2 formats a metric to two decimals, the paper's table precision.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// ratio formats v/base, guarding the divide.
func ratio(v, base float64) string {
	//strlint:ignore floateq exact zero sentinel guards the division
	if base == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", v/base)
}
