// Package trace records page-access sequences and replays them against
// simulated buffer replacement policies, so one measured workload yields
// the whole miss-ratio curve. Besides LRU (the paper's policy) and Clock,
// the package implements Belady's optimal offline policy (OPT), the lower
// bound no online policy can beat — which places the paper's LRU numbers
// in context.
package trace

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"

	"strtree/internal/storage"
)

// Trace is a sequence of page accesses in order.
type Trace []storage.PageID

// Recorder collects a trace from a buffer pool; attach its Observe method
// with pool.SetTracer(rec.Observe).
type Recorder struct {
	t Trace
}

// Observe appends one access. The hit flag is ignored: hits and misses
// are a property of the policy being simulated, not of the trace.
func (r *Recorder) Observe(id storage.PageID, hit bool) {
	r.t = append(r.t, id)
}

// Trace returns the accesses recorded so far.
func (r *Recorder) Trace() Trace { return r.t }

// traceMagic identifies a serialized trace stream.
const traceMagic uint32 = 0x53545254 // "TRTS"

// Save writes the trace in a compact binary form.
func (t Trace) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], traceMagic)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(len(t)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [4]byte
	for _, id := range t {
		binary.LittleEndian.PutUint32(buf[:], uint32(id))
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Load reads a trace written by Save.
func Load(r io.Reader) (Trace, error) {
	br := bufio.NewReader(r)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic")
	}
	n := binary.LittleEndian.Uint64(hdr[4:])
	const maxReasonable = 1 << 32
	if n > maxReasonable {
		return nil, fmt.Errorf("trace: implausible length %d", n)
	}
	t := make(Trace, n)
	var buf [4]byte
	for i := range t {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("trace: truncated at access %d: %w", i, err)
		}
		t[i] = storage.PageID(binary.LittleEndian.Uint32(buf[:]))
	}
	return t, nil
}

// SimulateLRU returns the miss count of an LRU buffer of the given
// capacity over the trace.
func (t Trace) SimulateLRU(capacity int) int {
	if capacity < 1 {
		return len(t)
	}
	// Simple intrusive list + map, mirroring the real pool.
	pos := make(map[storage.PageID]*cellNode, capacity)
	var head, tail *cellNode
	remove := func(c *cellNode) {
		if c.prev != nil {
			c.prev.next = c.next
		} else {
			head = c.next
		}
		if c.next != nil {
			c.next.prev = c.prev
		} else {
			tail = c.prev
		}
		c.prev, c.next = nil, nil
	}
	pushFront := func(c *cellNode) {
		c.next = head
		if head != nil {
			head.prev = c
		}
		head = c
		if tail == nil {
			tail = c
		}
	}
	misses := 0
	for _, id := range t {
		if c, ok := pos[id]; ok {
			remove(c)
			pushFront(c)
			continue
		}
		misses++
		if len(pos) == capacity {
			victim := tail
			remove(victim)
			delete(pos, victim.id)
		}
		c := &cellNode{id: id}
		pos[id] = c
		pushFront(c)
	}
	return misses
}

type cellNode struct {
	id         storage.PageID
	prev, next *cellNode
}

// SimulateClock returns the miss count of a Clock (second chance) buffer
// of the given capacity over the trace. It is the repository's only Clock:
// the buffer pool evicts by LRU alone, and the live Clock pool this was
// verified against miss for miss survives as the counts trace_test.go pins.
func (t Trace) SimulateClock(capacity int) int {
	if capacity < 1 {
		return len(t)
	}
	type frame struct {
		id  storage.PageID
		ref bool
	}
	frames := make([]frame, 0, capacity)
	pos := make(map[storage.PageID]int, capacity)
	hand := 0
	misses := 0
	for _, id := range t {
		if i, ok := pos[id]; ok {
			frames[i].ref = true
			continue
		}
		misses++
		if len(frames) < capacity {
			pos[id] = len(frames)
			frames = append(frames, frame{id: id, ref: true})
			continue
		}
		for {
			if frames[hand].ref {
				frames[hand].ref = false
				hand = (hand + 1) % capacity
				continue
			}
			delete(pos, frames[hand].id)
			frames[hand] = frame{id: id, ref: true}
			pos[id] = hand
			hand = (hand + 1) % capacity
			break
		}
	}
	return misses
}

// SimulateOPT returns the miss count of Belady's optimal offline policy:
// on eviction, discard the resident page whose next use is farthest in
// the future (or never). No online policy can miss less on this trace.
func (t Trace) SimulateOPT(capacity int) int {
	if capacity < 1 {
		return len(t)
	}
	// Precompute, for each access, the index of the next access to the
	// same page (len(t) = never).
	next := make([]int, len(t))
	last := make(map[storage.PageID]int)
	for i := len(t) - 1; i >= 0; i-- {
		if j, ok := last[t[i]]; ok {
			next[i] = j
		} else {
			next[i] = len(t)
		}
		last[t[i]] = i
	}
	// Resident set with a max-heap on next-use; entries may be stale, so
	// validate against nextUse on pop (lazy deletion).
	nextUse := make(map[storage.PageID]int, capacity)
	h := &optHeap{}
	misses := 0
	for i, id := range t {
		if _, ok := nextUse[id]; ok {
			nextUse[id] = next[i]
			heap.Push(h, optItem{id: id, next: next[i]})
			continue
		}
		misses++
		if len(nextUse) == capacity {
			for {
				top := heap.Pop(h).(optItem)
				if cur, ok := nextUse[top.id]; ok && cur == top.next {
					delete(nextUse, top.id)
					break
				}
				// Stale entry; keep popping.
			}
		}
		nextUse[id] = next[i]
		heap.Push(h, optItem{id: id, next: next[i]})
	}
	return misses
}

type optItem struct {
	id   storage.PageID
	next int
}

type optHeap []optItem

func (h optHeap) Len() int           { return len(h) }
func (h optHeap) Less(i, j int) bool { return h[i].next > h[j].next }
func (h optHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *optHeap) Push(x any)        { *h = append(*h, x.(optItem)) }
func (h *optHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// Distinct returns the number of distinct pages in the trace: the miss
// count of an infinite buffer.
func (t Trace) Distinct() int {
	seen := make(map[storage.PageID]bool)
	for _, id := range t {
		seen[id] = true
	}
	return len(seen)
}
