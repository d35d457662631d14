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
// One frame per shard makes "the next miss" on page 0's shard (page other)
// reuse that very Frame, which is the case the mark exists for: a stale
// verdict must not follow the backing array to a different page. It runs
// on one shard and on four, where the write pin and Create route to a
// shard by page hash.
func TestCheckedMarkLifecycle(t *testing.T) {
	var other storage.PageID // set per subtest: shares page 0's shard
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
			f := mustFetch(t, p, other)
			p.Release(f)
			if f != f0 {
				t.Fatal("one-frame shard did not reuse the frame; the case tests nothing")
			}
			return f
		}},
		{"evict, reload the same page", false, func(t *testing.T, p *Pool, _ *storage.FaultyPager, f0 *Frame) *Frame {
			p.Release(mustFetch(t, p, other))
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
			failRead(fp, other)
			if _, err := p.Fetch(other); !errors.Is(err, errInjected) {
				t.Fatalf("read error not surfaced: %v", err)
			}
			return f0 // evicted for the read that failed: orphaned, half-overwritten
		}},
		{"failed read, then retry", false, func(t *testing.T, p *Pool, fp *storage.FaultyPager, f0 *Frame) *Frame {
			failRead(fp, other)
			if _, err := p.Fetch(other); !errors.Is(err, errInjected) {
				t.Fatalf("read error not surfaced: %v", err)
			}
			fp.FailReads(nil)
			f := mustFetch(t, p, other)
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
				t.Fatal("one-frame shard did not reuse the frame; the case tests nothing")
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
	for _, sc := range shardCases {
		for _, tc := range cases {
			t.Run(sc.name+"/"+tc.name, func(t *testing.T) {
				inner := storage.NewMemPager(64)
				fp := storage.NewFaultyPager(inner)
				p, err := NewSharded(fp, sc.shards, sc.shards)
				if err != nil {
					t.Fatal(err)
				}
				// Pages 0 and other exist; Create allocates the next
				// page of the same shard.
				ids := sameShard(p, 3)
				other = ids[1]
				for range ids[2] {
					if _, err := inner.Alloc(); err != nil {
						t.Fatal(err)
					}
				}
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
}

func mustFetch(t *testing.T, p *Pool, id storage.PageID) *Frame {
	t.Helper()
	f, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
