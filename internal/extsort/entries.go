package extsort

import (
	"errors"
	"fmt"

	"strtree/internal/geom"
	"strtree/internal/node"
)

// Sort ingests the entries next yields and drains the merged stream into
// emit: the one entry form of Ingest and Stream. Entries are encoded into
// one reused record on the way in and decoded into one reused rectangle on
// the way out, so the entry emit receives is valid only for the call.
func (s *Sorter) Sort(key Key, next func() (node.Entry, bool), emit func(node.Entry) error) (err error) {
	size := node.EntrySize(s.dims)
	rec := make([]byte, size)
	st, err := s.Ingest(key, func() ([]byte, bool, error) {
		e, ok := next()
		if !ok {
			return nil, false, nil
		}
		if len(e.Rect.Min) != s.dims || len(e.Rect.Max) != s.dims {
			return nil, false, fmt.Errorf("extsort: entry dim %d, sorter dim %d", e.Rect.Dim(), s.dims)
		}
		node.PutRecord(rec, e.Rect, e.Ref)
		return rec, true, nil
	})
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, st.Close()) }()
	r := geom.Rect{Min: make(geom.Point, s.dims), Max: make(geom.Point, s.dims)}
	for {
		recs, ok, err := st.NextRun()
		if err != nil || !ok {
			return err
		}
		for ; len(recs) > 0; recs = recs[size:] {
			for d := range r.Min {
				r.Min[d], r.Max[d] = node.RecordWord(recs, 2*d), node.RecordWord(recs, 2*d+1)
			}
			if err := emit(node.Entry{Rect: r, Ref: node.RecordRef(recs, s.dims)}); err != nil {
				return err
			}
		}
	}
}
