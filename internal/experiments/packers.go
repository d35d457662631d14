package experiments

import (
	"fmt"

	"strtree/internal/datagen"
	"strtree/internal/node"
	"strtree/internal/pack"
	"strtree/internal/rtree"
)

func init() {
	Register("extpackers", ExtPackers)
}

// ExtPackers runs the full packing-algorithm roster — the paper's three
// plus TGS (the same authors' follow-up) — across all four data-set
// families at one small-buffer operating point. It answers the paper's
// concluding question ("developing a new algorithm that works well for all
// types of data is a challenge") for the algorithms this repository
// implements.
func ExtPackers(cfg Config) (*Table, error) {
	packers := []rtree.Orderer{pack.STR{}, pack.HS{}, pack.NX{}, pack.TGS{}}
	header := []string{"Data Set", "Query Class"}
	for _, p := range packers {
		header = append(header, p.Name())
	}
	t := &Table{
		ID:     "Extension Packers",
		Title:  "Disk Accesses per Query, All Packing Algorithms x All Data Families, Buffer = paper 50",
		Note:   scaleNote(cfg),
		Header: header,
	}
	buf := cfg.bufPages(50)
	families := []struct {
		name    string
		entries []node.Entry
	}{
		{"uniform d=5", datagen.UniformSquares(cfg.size(100000), 5.0, cfg.Seed)},
		{"tiger (sim)", datagen.Tiger(cfg.size(datagen.TigerSize), cfg.Seed)},
		{"vlsi (sim)", datagen.VLSI(cfg.size(100000), cfg.Seed)},
		{"cfd (sim)", datagen.CFD(cfg.size(datagen.CFDSize), cfg.Seed)},
	}
	for _, fam := range families {
		var workloads []workload
		if fam.name == "cfd (sim)" {
			workloads = cfdWorkloads(cfg)[:2]
		} else {
			workloads = fullSpaceWorkloads(cfg)[:2]
		}
		// Build each packer's tree once per family, reuse per workload.
		trees := make([]*rtree.Tree, len(packers))
		for i, p := range packers {
			tr, err := BuildPacked(fam.entries, p, buf, cfg.Capacity)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", fam.name, p.Name(), err)
			}
			trees[i] = tr
		}
		for _, w := range workloads {
			row := []string{fam.name, shortLabel(w.label)}
			for i := range packers {
				acc, err := AvgAccesses(trees[i], w.queries)
				if err != nil {
					return nil, err
				}
				row = append(row, f2(acc))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

func shortLabel(l string) string {
	switch {
	case l == "Point Queries":
		return "point"
	default:
		return "region 1%"
	}
}
