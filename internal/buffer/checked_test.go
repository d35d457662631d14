package buffer

import (
	"errors"
	"testing"

	"strtree/internal/storage"
)

// TestCheckedMarkLifecycle pins who may clear a frame's validation mark:
// it survives everything that leaves the bytes alone and dies at every
// point the pin protocol lets them change. Every case starts from page 0
// resident, marked and unpinned; the step returns the frame to inspect.
// Capacity 1 makes "the next miss" reuse that very Frame, which is the
// case the mark exists for: a stale verdict must not follow the backing
// array to a different page.
func TestCheckedMarkLifecycle(t *testing.T) {
	failRead := func(fp *storage.FaultyPager, page storage.PageID) {
		fp.FailReads(func(id storage.PageID) error {
			if id == page {
				return errInjected
			}
			return nil
		})
	}
	cases := []struct {
		name string
		want bool
		step func(t *testing.T, p *Pool, fp *storage.FaultyPager, f0 *Frame) *Frame
	}{
		{"release", true, func(t *testing.T, p *Pool, _ *storage.FaultyPager, f0 *Frame) *Frame {
			return f0 // the setup already released it
		}},
		{"hit", true, func(t *testing.T, p *Pool, _ *storage.FaultyPager, f0 *Frame) *Frame {
			f := mustFetch(t, p, 0)
			p.Release(f)
			return f
		}},
		{"write-pin hit, before its release", true, func(t *testing.T, p *Pool, _ *storage.FaultyPager, f0 *Frame) *Frame {
			f, err := p.FetchMut(0)
			if err != nil {
				t.Fatal(err)
			}
			return f // still write-pinned: the holder has not patched yet
		}},
		{"FlushAll", true, func(t *testing.T, p *Pool, _ *storage.FaultyPager, f0 *Frame) *Frame {
			if err := p.FlushAll(); err != nil {
				t.Fatal(err)
			}
			return f0
		}},
		{"evict and reuse", false, func(t *testing.T, p *Pool, _ *storage.FaultyPager, f0 *Frame) *Frame {
			f := mustFetch(t, p, 1)
			p.Release(f)
			if f != f0 {
				t.Fatal("capacity-1 pool did not reuse the frame; the case tests nothing")
			}
			return f
		}},
		{"evict, reload the same page", false, func(t *testing.T, p *Pool, _ *storage.FaultyPager, f0 *Frame) *Frame {
			p.Release(mustFetch(t, p, 1))
			f := mustFetch(t, p, 0)
			p.Release(f)
			return f
		}},
		{"Invalidate and reload", false, func(t *testing.T, p *Pool, _ *storage.FaultyPager, f0 *Frame) *Frame {
			if err := p.Invalidate(); err != nil {
				t.Fatal(err)
			}
			f := mustFetch(t, p, 0)
			p.Release(f)
			return f
		}},
		{"failed read", false, func(t *testing.T, p *Pool, fp *storage.FaultyPager, f0 *Frame) *Frame {
			failRead(fp, 1)
			if _, err := p.Fetch(1); !errors.Is(err, errInjected) {
				t.Fatalf("read error not surfaced: %v", err)
			}
			return f0 // evicted for the read that failed: orphaned, half-overwritten
		}},
		{"failed read, then retry", false, func(t *testing.T, p *Pool, fp *storage.FaultyPager, f0 *Frame) *Frame {
			failRead(fp, 1)
			if _, err := p.Fetch(1); !errors.Is(err, errInjected) {
				t.Fatalf("read error not surfaced: %v", err)
			}
			fp.FailReads(nil)
			f := mustFetch(t, p, 1)
			p.Release(f)
			return f
		}},
		{"Create", false, func(t *testing.T, p *Pool, _ *storage.FaultyPager, f0 *Frame) *Frame {
			f, err := p.Create()
			if err != nil {
				t.Fatal(err)
			}
			p.Release(f)
			if f != f0 {
				t.Fatal("capacity-1 pool did not reuse the frame; the case tests nothing")
			}
			return f
		}},
		{"MarkDirty", false, func(t *testing.T, p *Pool, _ *storage.FaultyPager, f0 *Frame) *Frame {
			f := mustFetch(t, p, 0)
			f.MarkDirty()
			p.Release(f)
			return f
		}},
		{"ReleaseMut", false, func(t *testing.T, p *Pool, _ *storage.FaultyPager, f0 *Frame) *Frame {
			f, err := p.FetchMut(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.ReleaseMut(f); err != nil {
				t.Fatal(err)
			}
			return f
		}},
	}
	for _, tc := range cases {
		t.Run("lru/"+tc.name, func(t *testing.T) {
			inner := storage.NewMemPager(64)
			for i := 0; i < 3; i++ {
				if _, err := inner.Alloc(); err != nil {
					t.Fatal(err)
				}
			}
			fp := storage.NewFaultyPager(inner)
			p := NewPool(fp, 1)
			f0 := mustFetch(t, p, 0)
			if f0.Checked() {
				t.Fatal("a freshly loaded frame is already marked")
			}
			f0.SetChecked()
			p.Release(f0)
			if got := tc.step(t, p, fp, f0).Checked(); got != tc.want {
				t.Fatalf("Checked() = %v after %s, want %v", got, tc.name, tc.want)
			}
		})
	}
}

// TestCheckedMarkSharded runs the mark through a Sharded manager's write
// pin and Create, the two clearing points it routes to a shard itself.
func TestCheckedMarkSharded(t *testing.T) {
	s, _ := newShardedN(t, 8, 4, 8)
	f, err := s.Fetch(3)
	if err != nil {
		t.Fatal(err)
	}
	f.SetChecked()
	s.Release(f)
	if f, err = s.Fetch(3); err != nil || !f.Checked() {
		t.Fatalf("mark lost across a sharded hit (err %v)", err)
	}
	s.Release(f)
	if f, err = s.FetchMut(3); err != nil {
		t.Fatal(err)
	}
	if err := s.ReleaseMut(f); err != nil {
		t.Fatal(err)
	}
	if f.Checked() {
		t.Fatal("mark survived a sharded ReleaseMut")
	}
	c, err := s.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release(c)
	if c.Checked() {
		t.Fatal("a created frame is marked")
	}
}

func mustFetch(t *testing.T, p *Pool, id storage.PageID) *Frame {
	t.Helper()
	f, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
