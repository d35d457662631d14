package rtree

import (
	"fmt"

	"strtree/internal/node"
	"strtree/internal/storage"
)

// Join reports every pair of data entries (ea from a, eb from b) whose
// rectangles intersect, using the classical synchronized depth-first
// traversal of both trees: a pair of nodes is expanded only if their MBRs
// intersect, so disjoint subtrees are never read. Returning false from fn
// stops the join.
//
// Joining a tree with itself reports symmetric pairs twice and every entry
// paired with itself; callers wanting unordered distinct pairs should
// filter on ea.Ref < eb.Ref.
//
// The traversal runs on the zero-copy read path: each popped node pair is
// banked out of its pinned views into pooled buffers (one pin at a time,
// both pages fetched per pair, exactly like the recursive reference), so
// a steady-state join allocates nothing. The entries passed to fn alias
// those pooled buffers and are valid only during the callback.
func Join(a, b *Tree, fn func(ea, eb node.Entry) bool) error {
	if a.dims != b.dims {
		return fmt.Errorf("rtree: join dimensions disagree: %d vs %d", a.dims, b.dims)
	}
	if a.height == 0 || b.height == 0 {
		return nil
	}
	a.readQueries.Add(1)
	b.readQueries.Add(1)
	tr := a.getTraverser()
	defer a.putTraverser(tr)
	var visitsB visitTally // tr.n holds a's
	defer b.publish(&visitsB)
	dims := a.dims
	tr.pairs = append(tr.pairs[:0], pagePair{a: a.root, b: b.root})
	for len(tr.pairs) > 0 {
		top := len(tr.pairs) - 1
		pr := tr.pairs[top]
		tr.pairs = tr.pairs[:top]
		if err := a.bankNode(pr.a, &tr.bankA, &tr.n); err != nil {
			return err
		}
		if err := b.bankNode(pr.b, &tr.bankB, &visitsB); err != nil {
			return err
		}
		na, nb := &tr.bankA, &tr.bankB
		switch {
		case na.level == 0 && nb.level == 0:
			for i := 0; i < na.count; i++ {
				ra := na.rect(i, dims)
				for k := 0; k < nb.count; k++ {
					rb := nb.rect(k, dims)
					if !ra.Intersects(rb) {
						continue
					}
					if !fn(node.Entry{Rect: ra, Ref: na.refs[i]}, node.Entry{Rect: rb, Ref: nb.refs[k]}) {
						return nil
					}
				}
			}

		case na.level > 0 && (nb.level == 0 || na.level >= nb.level):
			// Descend the taller (or internal) side a: expand each child of
			// na that intersects nb's MBR against the same nb.
			base := len(tr.pairs)
			for i := 0; i < na.count; i++ {
				if nb.mbr.Intersects(na.rect(i, dims)) {
					tr.pairs = append(tr.pairs, pagePair{a: storage.PageID(na.refs[i]), b: pr.b})
				}
			}
			reversePairs(tr.pairs[base:])

		default:
			base := len(tr.pairs)
			for i := 0; i < nb.count; i++ {
				if na.mbr.Intersects(nb.rect(i, dims)) {
					tr.pairs = append(tr.pairs, pagePair{a: pr.a, b: storage.PageID(nb.refs[i])})
				}
			}
			reversePairs(tr.pairs[base:])
		}
	}
	return nil
}

// reversePairs reverses s in place, so pairs pushed in entry order pop in
// entry order — the recursive reference's depth-first expansion order.
func reversePairs(s []pagePair) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
