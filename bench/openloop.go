package main

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// openResult is what an open-loop run recorded, indexed by request.
type openResult struct {
	lat        []int64 // completion minus due time, ns; meaningless where !sent
	lag        []int64 // actual send time minus due time, ns
	sent, ok   []bool
	backlogMax int // most requests ever due but not yet started
}

// openLoop issues n requests on a fixed schedule — request i is due
// i/rps after the start — from `clients` goroutines, each of which sends
// one request at a time (one connection each). Independent users do not
// wait for each other's replies, so the schedule does not slow down when
// the system does: a request that comes due while every client is busy
// waits, and because its latency is timed from when it was due, not from
// when it was sent, that wait is counted. Requests still unsent giveUp
// after the start are abandoned (sent stays false).
func openLoop(n int, rps float64, clients int, giveUp time.Duration, send func(client, i int) bool) (openResult, error) {
	pacers := make([]*pacer, clients)
	for i := range pacers {
		p, err := newPacer()
		if err != nil {
			return openResult{}, err
		}
		defer p.close()
		pacers[i] = p
	}
	errs := make([]error, clients)
	res := openResult{lat: make([]int64, n), lag: make([]int64, n), sent: make([]bool, n), ok: make([]bool, n)}
	interval := float64(time.Second) / rps
	start := time.Now()
	var next atomic.Int64
	var backlog atomic.Int64
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := time.Duration(float64(i) * interval)
				now := time.Since(start)
				if now > giveUp {
					return
				}
				for now < due {
					if errs[cl] = pacers[cl].sleep(due - now); errs[cl] != nil {
						return
					}
					now = time.Since(start)
				}
				// Requests due by now and not yet claimed by any client.
				if late := int64(float64(now)/interval) - int64(i); late > 0 {
					for {
						cur := backlog.Load()
						if late <= cur || backlog.CompareAndSwap(cur, late) {
							break
						}
					}
				}
				res.sent[i] = true
				res.lag[i] = int64(now - due)
				res.ok[i] = send(cl, i)
				res.lat[i] = int64(time.Since(start) - due)
			}
		}(cl)
	}
	wg.Wait()
	res.backlogMax = int(backlog.Load())
	return res, errors.Join(errs...)
}
