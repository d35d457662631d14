package strtree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"strtree/internal/buffer"
	"strtree/internal/rtree"
	"strtree/internal/storage"
)

// A LayerSet stores several independently named R-trees ("layers") in one
// page file sharing one buffer pool — the parcels / roads / flood-zones
// organization of a small spatial database. Layers are created and opened
// by name; cross-layer operations (Join, JoinWithin) work directly on the
// returned trees.
//
// A LayerSet is safe for single-goroutine use; concurrent queries across
// layers are safe as long as no layer is being mutated.
type LayerSet struct {
	pager   storage.Pager
	pool    *buffer.Pool
	opts    Options
	catalog map[string]storage.PageID
	opened  map[string]*Tree
}

const (
	layerMagic   uint32 = 0x4C525453 // "STRL"
	layerVersion byte   = 1
	layerNameMax        = 32
	layerHdrSize        = 8
	layerEntSize        = layerNameMax + 4
)

// ErrNoLayer is returned when opening a layer that does not exist.
var ErrNoLayer = errors.New("strtree: no such layer")

// NewLayers creates an empty in-memory layer set.
func NewLayers(opts Options) (*LayerSet, error) {
	opts = opts.withDefaults()
	return newLayerSet(storage.NewMemPager(opts.PageSize), opts)
}

// CreateLayers creates an empty layer set stored in a new file at path.
func CreateLayers(path string, opts Options) (*LayerSet, error) {
	opts = opts.withDefaults()
	pg, err := storage.CreateFilePager(path, opts.PageSize)
	if err != nil {
		return nil, err
	}
	ls, err := newLayerSet(pg, opts)
	if err != nil {
		return nil, errors.Join(err, pg.Close())
	}
	return ls, nil
}

func newLayerSet(pg storage.Pager, opts Options) (*LayerSet, error) {
	pool := buffer.NewPool(pg, opts.BufferPages)
	ls := &LayerSet{
		pager:   pg,
		pool:    pool,
		opts:    opts,
		catalog: map[string]storage.PageID{},
		opened:  map[string]*Tree{},
	}
	// Claim page 0 for the catalog.
	f, err := pool.Create()
	if err != nil {
		return nil, err
	}
	ls.encodeCatalog(f.Data())
	f.MarkDirty()
	pool.Release(f)
	return ls, nil
}

// OpenLayers opens a layer set written by CreateLayers. Only PageSize and
// BufferPages of opts are used for the file; structural options apply to
// layers created afterwards.
func OpenLayers(path string, opts Options) (*LayerSet, error) {
	opts = opts.withDefaults()
	pg, err := storage.OpenFilePager(path, opts.PageSize)
	if err != nil {
		return nil, err
	}
	pool := buffer.NewPool(pg, opts.BufferPages)
	ls := &LayerSet{
		pager:   pg,
		pool:    pool,
		opts:    opts,
		catalog: map[string]storage.PageID{},
		opened:  map[string]*Tree{},
	}
	f, err := pool.Fetch(0)
	if err != nil {
		return nil, errors.Join(err, pg.Close())
	}
	err = ls.decodeCatalog(f.Data())
	pool.Release(f)
	if err != nil {
		return nil, errors.Join(err, pg.Close())
	}
	return ls, nil
}

func (ls *LayerSet) encodeCatalog(page []byte) {
	binary.LittleEndian.PutUint32(page[0:], layerMagic)
	page[4] = layerVersion
	names := ls.names()
	binary.LittleEndian.PutUint16(page[6:], uint16(len(names)))
	off := layerHdrSize
	for _, name := range names {
		var buf [layerNameMax]byte
		copy(buf[:], name)
		copy(page[off:], buf[:])
		binary.LittleEndian.PutUint32(page[off+layerNameMax:], uint32(ls.catalog[name]))
		off += layerEntSize
	}
}

func (ls *LayerSet) decodeCatalog(page []byte) error {
	if len(page) < layerHdrSize || binary.LittleEndian.Uint32(page[0:]) != layerMagic {
		return fmt.Errorf("strtree: not a layer-set file")
	}
	if page[4] != layerVersion {
		return fmt.Errorf("strtree: unsupported layer-set version %d", page[4])
	}
	count := int(binary.LittleEndian.Uint16(page[6:]))
	if layerHdrSize+count*layerEntSize > len(page) {
		return fmt.Errorf("strtree: corrupt layer catalog")
	}
	off := layerHdrSize
	for i := 0; i < count; i++ {
		raw := page[off : off+layerNameMax]
		end := 0
		for end < len(raw) && raw[end] != 0 {
			end++
		}
		name := string(raw[:end])
		ls.catalog[name] = storage.PageID(binary.LittleEndian.Uint32(page[off+layerNameMax:]))
		off += layerEntSize
	}
	return nil
}

// writeCatalog persists the catalog to page 0.
func (ls *LayerSet) writeCatalog() error {
	f, err := ls.pool.Fetch(0)
	if err != nil {
		return err
	}
	ls.encodeCatalog(f.Data())
	f.MarkDirty()
	ls.pool.Release(f)
	return nil
}

func (ls *LayerSet) names() []string {
	out := make([]string, 0, len(ls.catalog))
	for name := range ls.catalog {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// Names lists the layers in the set, sorted.
func (ls *LayerSet) Names() []string { return ls.names() }

// Create adds a new empty layer and returns its tree. Structural options
// (Dims, Capacity, MinFill, ForcedReinsert) come from the set's
// Options. The name must be non-empty, at most 32 bytes, and unused.
func (ls *LayerSet) Create(name string) (*Tree, error) {
	if name == "" || len(name) > layerNameMax {
		return nil, fmt.Errorf("strtree: invalid layer name %q", name)
	}
	if _, dup := ls.catalog[name]; dup {
		return nil, fmt.Errorf("strtree: layer %q already exists", name)
	}
	maxLayers := (ls.opts.PageSize - layerHdrSize) / layerEntSize
	if len(ls.catalog) >= maxLayers {
		return nil, fmt.Errorf("strtree: layer catalog full (%d layers)", maxLayers)
	}
	inner, err := rtree.CreateAt(ls.pool, rtree.Config{
		Dims:           ls.opts.Dims,
		Capacity:       ls.opts.Capacity,
		MinFill:        ls.opts.MinFill,
		ForcedReinsert: ls.opts.ForcedReinsert,
	})
	if err != nil {
		return nil, err
	}
	ls.catalog[name] = inner.MetaPage()
	if err := ls.writeCatalog(); err != nil {
		delete(ls.catalog, name)
		return nil, err
	}
	t := &Tree{inner: inner, pool: ls.pool, pager: ls.pager, shared: true}
	ls.opened[name] = t
	return t, nil
}

// Open returns the named layer's tree, creating the handle on first use.
func (ls *LayerSet) Open(name string) (*Tree, error) {
	if t, ok := ls.opened[name]; ok {
		return t, nil
	}
	meta, ok := ls.catalog[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoLayer, name)
	}
	inner, err := rtree.OpenAt(ls.pool, meta)
	if err != nil {
		return nil, err
	}
	t := &Tree{inner: inner, pool: ls.pool, pager: ls.pager, shared: true}
	ls.opened[name] = t
	return t, nil
}

// Flush writes every opened layer's state and then the catalog to
// storage. Layers flush in sorted name order: ls.opened is a map, and
// ranging it directly would leak map iteration order into the sequence of
// per-layer metadata writes, making the write stream differ from run to
// run for no reason. Sorting pins each layer's flush — and the catalog
// write, always last — to a deterministic position.
func (ls *LayerSet) Flush() error {
	names := make([]string, 0, len(ls.opened))
	for name := range ls.opened {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		if err := ls.opened[name].Flush(); err != nil {
			return err
		}
	}
	if err := ls.writeCatalog(); err != nil {
		return err
	}
	return ls.pool.FlushAll()
}

// Close flushes and releases the underlying storage; all layer handles
// become unusable.
func (ls *LayerSet) Close() error {
	flushErr := ls.Flush()
	syncErr := ls.pager.Sync()
	closeErr := ls.pager.Close()
	return errors.Join(flushErr, syncErr, closeErr)
}

// Stats returns the shared pool's counters (all layers count together).
func (ls *LayerSet) Stats() IOStats {
	s := ls.pool.Stats()
	return IOStats{
		LogicalReads: s.LogicalReads,
		DiskReads:    s.DiskReads,
		DiskWrites:   s.DiskWrites,
		Evictions:    s.Evictions,
	}
}

// ResetStats zeroes the shared counters.
func (ls *LayerSet) ResetStats() { ls.pool.ResetStats() }
