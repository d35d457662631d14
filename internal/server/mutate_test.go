package server

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"strtree/internal/geom"
)

// TestServerMutateOps drives the mutation ops through a real client over
// a real socket: inserts become visible to queries, deletes report found
// versus miss correctly, the returned lengths track the tree, and the
// tree still passes the full invariant verifier afterwards.
func TestServerMutateOps(t *testing.T) {
	tree := buildTree(t, 200)
	defer func() { _ = tree.Close() }()
	srv, addr := startServer(t, tree, Config{Mutable: true})
	cl := Dial(addr)
	defer func() { _ = cl.Close() }()

	base := tree.Len()
	r := geom.R2(10, 10, 11, 11) // outside the uniform [0,1) build data
	n, err := cl.Insert(r, 9001)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if int(n) != base+1 {
		t.Fatalf("Insert returned length %d, want %d", n, base+1)
	}
	items, err := cl.Search(geom.R2(9.5, 9.5, 11.5, 11.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].ID != 9001 {
		t.Fatalf("inserted item not visible to Search: %+v", items)
	}

	found, n, err := cl.Delete(r, 9001)
	if err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if !found || int(n) != base {
		t.Fatalf("Delete = (%t, %d), want (true, %d)", found, n, base)
	}
	// Exact-match miss: same rectangle, wrong ID.
	if err := func() error {
		_, err := cl.Insert(r, 9002)
		return err
	}(); err != nil {
		t.Fatal(err)
	}
	found, _, err = cl.Delete(r, 9999)
	if err != nil {
		t.Fatalf("miss Delete: %v", err)
	}
	if found {
		t.Fatal("Delete with wrong ID reported found")
	}
	if srv.MutationsApplied() != 3 {
		t.Fatalf("MutationsApplied = %d, want 3 (two inserts + one found delete)", srv.MutationsApplied())
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("post-mutation invariants: %v", err)
	}
}

// TestServerMutateRejectedWhenReadOnly pins the default: a server built
// without Mutable refuses mutations in-band and never touches the tree.
func TestServerMutateRejectedWhenReadOnly(t *testing.T) {
	tree := buildTree(t, 100)
	defer func() { _ = tree.Close() }()
	srv, addr := startServer(t, tree, Config{})
	cl := Dial(addr)
	defer func() { _ = cl.Close() }()

	before := tree.Len()
	if _, err := cl.Insert(geom.R2(0, 0, 1, 1), 1); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("read-only Insert error = %v, want ErrBadRequest", err)
	}
	if _, _, err := cl.Delete(geom.R2(0, 0, 1, 1), 1); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("read-only Delete error = %v, want ErrBadRequest", err)
	}
	if tree.Len() != before {
		t.Fatalf("read-only server mutated the tree: %d -> %d", before, tree.Len())
	}
	// A refusal is an answer, not a completed request.
	if st := srv.Stats(); st.Accepted != 2 || st.Completed != 0 || st.Failed != 0 {
		t.Fatalf("refused mutations counted accepted/completed/failed = %d/%d/%d, want 2/0/0",
			st.Accepted, st.Completed, st.Failed)
	}
}

// TestServerMutateDimsMismatch: a 3-d rectangle against the 2-d tree is
// answered with StatusBadRequest, not an internal error.
func TestServerMutateDimsMismatch(t *testing.T) {
	tree := buildTree(t, 50)
	defer func() { _ = tree.Close() }()
	_, addr := startServer(t, tree, Config{Mutable: true})
	cl := Dial(addr)
	defer func() { _ = cl.Close() }()

	bad := geom.Rect{Min: geom.Point{0, 0, 0}, Max: geom.Point{1, 1, 1}}
	if _, err := cl.Insert(bad, 1); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("3-d Insert error = %v, want ErrBadRequest", err)
	}
}

// TestServerMutateConcurrentWithQueries hammers the tree lock: writer
// goroutines insert and delete through the wire while reader goroutines
// query, and the tree must come out consistent. Run under -race this is
// the serving layer's mutation/query exclusion proof.
func TestServerMutateConcurrentWithQueries(t *testing.T) {
	tree := buildTree(t, 300)
	defer func() { _ = tree.Close() }()
	_, addr := startServer(t, tree, Config{Mutable: true, MaxInFlight: 32})

	const writers, readers, opsEach = 2, 4, 40
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := Dial(addr)
			defer func() { _ = cl.Close() }()
			rng := rand.New(rand.NewSource(int64(7000 + w)))
			for i := 0; i < opsEach; i++ {
				id := uint64(w)<<32 | uint64(i)
				lo := rng.Float64() * 5
				r := geom.R2(lo, lo, lo+0.1, lo+0.1)
				if _, err := cl.Insert(r, id); err != nil {
					errs <- err
					return
				}
				if i%2 == 1 {
					if _, _, err := cl.Delete(r, id); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := Dial(addr)
			defer func() { _ = cl.Close() }()
			rng := rand.New(rand.NewSource(int64(8000 + g)))
			for i := 0; i < opsEach; i++ {
				lo := rng.Float64() * 5
				if _, err := cl.Search(geom.R2(lo, lo, lo+1, lo+1)); err != nil {
					errs <- err
					return
				}
				if _, err := cl.Count(geom.R2(0, 0, 6, 6)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("post-churn invariants: %v", err)
	}
}
