//go:build linux

package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer is an open-loop client's clock: sleep returns once d has passed,
// to within some tens of microseconds. time.Sleep cannot do that — the Go
// runtime parks an idle thread in epoll with a timeout in whole
// milliseconds, so a sub-millisecond sleep overshoots by up to a
// millisecond, several request intervals at the rates used here — and
// spinning until the due time takes a processor from the servers under
// test. A timerfd is a file: the runtime's network poller wakes the
// goroutine reading it when the kernel's high-resolution timer fires,
// and the thread is free for other work in the meantime.
type pacer struct {
	f *os.File
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}, nil
}

// itimerspec is struct itimerspec: a one-shot timer has a zero interval.
type itimerspec struct {
	interval, value syscall.Timespec
}

func (p *pacer) sleep(d time.Duration) error {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
