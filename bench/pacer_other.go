//go:build !linux

package main

import "time"

// pacer falls back to time.Sleep where there is no timerfd; open-loop
// latencies then include the runtime's millisecond timer granularity.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (*pacer) sleep(d time.Duration) error {
	time.Sleep(d)
	return nil
}

func (*pacer) close() error { return nil }
